package miner

import (
	"fmt"

	"optrule/internal/bucketing"
	"optrule/internal/core"
	"optrule/internal/relation"
)

// AvgRange is an optimized range for the average operator (Section 5):
// a range of the driver attribute A optimizing the average of the
// target attribute B.
type AvgRange struct {
	// Driver and Target are the attribute names A and B.
	Driver, Target string
	// Low and High delimit the range of A (observed values).
	Low, High float64
	// Support is the fraction of tuples with A in the range; Count the
	// absolute number.
	Support float64
	Count   int
	// Average is the mean of B over tuples with A in the range.
	Average float64
	// OverallAverage is the mean of B over all tuples.
	OverallAverage float64
}

// String renders the range as the decision-support query it answers.
func (a AvgRange) String() string {
	return fmt.Sprintf("avg(%s | %s in [%.6g, %.6g]) = %.6g over %d tuples (%.2f%% support; overall avg %.6g)",
		a.Target, a.Driver, a.Low, a.High, a.Average, a.Count, 100*a.Support, a.OverallAverage)
}

// fillAvg assembles an AvgRange from a bucket-range solution over c's
// buckets, whose target values sum to totalSum.
func fillAvg(driver, target string, p core.Pair, c *bucketing.Counts, totalSum float64) AvgRange {
	return AvgRange{
		Driver:         driver,
		Target:         target,
		Low:            c.MinVal[p.S],
		High:           c.MaxVal[p.T],
		Support:        float64(p.Count) / float64(c.N),
		Count:          p.Count,
		Average:        p.Conf,
		OverallAverage: totalSum / float64(c.N),
	}
}

// MaxAverageRange computes the range of driver values that maximizes
// the average of the target attribute among ranges containing at least
// minSupport (a fraction) of the tuples — Definition 5.2, solved with
// the optimal-slope-pair algorithm.
func MaxAverageRange(rel relation.Relation, driver, target string, minSupport float64, cfg Config) (AvgRange, error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return AvgRange{}, err
	}
	return s.MaxAverageRange(driver, target, minSupport)
}

// MaxSupportRange computes the range of driver values that maximizes
// support among ranges whose target average is at least minAverage —
// Definition 5.3, solved with the optimal-support-pair algorithm. As
// the paper notes, a threshold at or below the overall average is
// trivially satisfied by the whole domain; that result is returned, not
// an error.
func MaxSupportRange(rel relation.Relation, driver, target string, minAverage float64, cfg Config) (AvgRange, error) {
	s, err := NewSession(rel, cfg)
	if err != nil {
		return AvgRange{}, err
	}
	return s.MaxSupportRange(driver, target, minAverage)
}
