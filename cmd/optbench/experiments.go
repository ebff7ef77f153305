package main

// Each runner prints its experiment in the paper's format and returns
// the structured result for the -json report.

import (
	"fmt"
	"os"

	"optrule/internal/experiments"
)

func runFig1(bool, int64) (any, error) {
	res := experiments.Fig1(100)
	res.Print(os.Stdout)
	fmt.Println()
	return res, nil
}

func runTable1(bool, int64) (any, error) {
	res := experiments.Table1(100000)
	res.Print(os.Stdout)
	fmt.Println()
	return res, nil
}

func runFig9(full bool, seed int64) (any, error) {
	sizes := []int{50000, 100000, 200000, 400000, 800000}
	if full {
		sizes = []int{500000, 1000000, 2000000, 5000000}
	}
	res, err := experiments.Fig9(sizes, seed)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	fmt.Println()
	return res, nil
}

func runFig9Disk(full bool, seed int64) (any, error) {
	sizes := []int{100000, 200000, 400000, 800000}
	if full {
		sizes = []int{500000, 1000000, 2000000, 5000000}
	}
	res, err := experiments.Fig9Disk(sizes, 1<<16, seed)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	fmt.Println()
	return res, nil
}

func runFig10(full bool, seed int64) (any, error) {
	ms := []int{100, 500, 1000, 5000, 10000, 100000, 1000000}
	naiveCap := 20000
	if full {
		naiveCap = 1000000
	}
	res := experiments.Fig10(ms, naiveCap, seed)
	res.Print(os.Stdout)
	fmt.Println()
	return res, nil
}

func runFig11(full bool, seed int64) (any, error) {
	ms := []int{100, 500, 1000, 5000, 10000, 100000, 1000000}
	naiveCap := 20000
	if full {
		naiveCap = 1000000
	}
	res := experiments.Fig11(ms, naiveCap, seed)
	res.Print(os.Stdout)
	fmt.Println()
	return res, nil
}

func runAblations(full bool, seed int64) (any, error) {
	out := map[string]any{}
	n := 500000
	if full {
		n = 5000000
	}
	sf, err := experiments.AblateSampleFactor(n, 1000, nil, seed)
	if err != nil {
		return nil, err
	}
	sf.Print(os.Stdout)
	fmt.Println()
	out["sampleFactor"] = sf

	ms := []int{100, 1000, 10000, 50000}
	if full {
		ms = append(ms, 200000)
	}
	ht, err := experiments.AblateHullTree(ms, seed)
	if err != nil {
		return nil, err
	}
	ht.Print(os.Stdout)
	fmt.Println()
	out["hullTree"] = ht

	bc, err := experiments.AblateBucketCount(n/2, nil, seed)
	if err != nil {
		return nil, err
	}
	bc.Print(os.Stdout)
	fmt.Println()
	out["bucketCount"] = bc

	sc, err := experiments.AblateBucketingScheme(n/2, nil, seed)
	if err != nil {
		return nil, err
	}
	sc.Print(os.Stdout)
	fmt.Println()
	out["bucketingScheme"] = sc
	return out, nil
}

func runRegions(full bool, seed int64) (any, error) {
	side := 32
	if full {
		side = 64
	}
	res, err := experiments.Regions(side, 50, seed)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	fmt.Println()
	return res, nil
}

func runParallel(full bool, seed int64) (any, error) {
	n := 1000000
	if full {
		n = 10000000
	}
	res, err := experiments.Parallel(n, 16, seed)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	fmt.Println()
	return res, nil
}
