// Command optmine mines optimized association rules from a CSV file or
// a binary .opr relation.
//
// Mine everything (all numeric × Boolean attribute combinations):
//
//	optmine -in customers.csv -minsup 0.1 -minconf 0.6 -top 20
//
// Mine one targeted rule, optionally with a presumptive condition:
//
//	optmine -in customers.csv -numeric Balance -objective CardLoan \
//	        -cond AutoWithdraw=yes -minconf 0.55
//
// Section 5 average-operator queries:
//
//	optmine -in customers.csv -avg -numeric CheckingAccount \
//	        -target SavingAccount -minsup 0.10
//
// All-pairs 2-D mining (§1.4, fused engine — two relation scans for
// every attribute pair; see -grid for the per-axis bucket count):
//
//	optmine -in customers.csv -all2d -objective CardLoan -grid 32 \
//	        -region xmonotone -top 10
//
// Batch mode: answer a whole JSON file of heterogeneous queries from
// ONE plan/execute session — the entire batch costs exactly two
// relation scans (see batch.go for the query format):
//
//	optmine -in customers.csv -batch queries.json -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"optrule/internal/miner"
	"optrule/internal/relation"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "optmine:", err)
		os.Exit(1)
	}
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("optmine", flag.ContinueOnError)
	in := fs.String("in", "", "input .csv file, .opr file, or .oprs shard manifest (required)")
	minSup := fs.Float64("minsup", 0.05, "minimum support threshold (fraction)")
	minConf := fs.Float64("minconf", 0.5, "minimum confidence threshold (fraction)")
	buckets := fs.Int("buckets", 1000, "number of equi-depth buckets M")
	seed := fs.Int64("seed", 1, "random seed for bucket sampling")
	top := fs.Int("top", 0, "print only the top-K rules by lift (0 = all)")
	numeric := fs.String("numeric", "", "targeted mining: numeric attribute A")
	objective := fs.String("objective", "", "targeted mining: Boolean objective attribute C")
	objValue := fs.Bool("value", true, "targeted mining: required objective value")
	conds := fs.String("cond", "", "comma-separated presumptive conditions, e.g. Pizza=yes,Beer=no")
	negations := fs.Bool("negations", false, "also mine (C=no) objectives in MineAll mode")
	profile := fs.Bool("profile", false, "targeted mining: also render the per-bucket confidence profile")
	topK := fs.Int("k", 0, "targeted mining: return up to K disjoint optimized-confidence ranges")
	describe := fs.Bool("describe", false, "print a per-attribute summary of the input and exit")
	jsonOut := fs.Bool("json", false, "emit rules as JSON instead of text")
	numeric2 := fs.String("numeric2", "", "2-D mining: second numeric attribute (rectangle rules, with -numeric and -objective)")
	gridSide := fs.Int("grid", 0, "2-D mining: buckets per axis (0 = default)")
	regionClass := fs.String("region", "", "2-D mining: also mine a gain-optimal region of this class: xmonotone or rectconvex")
	all2D := fs.Bool("all2d", false, "2-D mining: mine every numeric attribute pair against -objective in two relation scans (fused engine); -numerics restricts the attributes")
	numerics := fs.String("numerics", "", "all-pairs 2-D mining: comma-separated numeric attributes to pair up (default: all)")
	batch := fs.String("batch", "", "batch mode: path to a queries JSON file, answered by one session in two relation scans (see cmd/optmine/batch.go for the format)")
	cacheStats := fs.Bool("cachestats", false, "batch mode: print the session cache's occupancy and hit/miss traffic after the batch (to stderr under -json)")
	avg := fs.Bool("avg", false, "average-operator mode (Section 5); requires -numeric and -target")
	target := fs.String("target", "", "average mode: target numeric attribute B")
	minAvg := fs.Float64("minavg", 0, "average mode: minimum average for the max-support range (0 = skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	rel, err := openRelation(*in)
	if err != nil {
		return err
	}
	cfg := miner.Config{
		MinSupport:    *minSup,
		MinConfidence: *minConf,
		Buckets:       *buckets,
		Seed:          *seed,
		MineNegations: *negations,
	}

	if *describe {
		sum, err := miner.Describe(rel)
		if err != nil {
			return err
		}
		sum.Print(w)
		return nil
	}

	if *batch != "" {
		return runBatch(rel, *batch, cfg, *jsonOut, *cacheStats, w)
	}

	// Every other mode runs its queries on one session, so queries that
	// share statistics share the session's scans.
	session, err := miner.NewSession(rel, cfg)
	if err != nil {
		return err
	}

	if *avg {
		if *numeric == "" || *target == "" {
			return fmt.Errorf("average mode requires -numeric and -target")
		}
		got, err := session.MaxAverageRange(*numeric, *target, *minSup)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "maximum-average range:", got)
		if *minAvg > 0 {
			msr, err := session.MaxSupportRange(*numeric, *target, *minAvg)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, "maximum-support range:", msr)
		}
		return nil
	}

	if *all2D {
		if *objective == "" {
			return fmt.Errorf("all-pairs 2-D mining requires -objective")
		}
		opt := miner.Options2D{
			Objective:      *objective,
			ObjectiveValue: *objValue,
			GridSide:       *gridSide,
		}
		if *numerics != "" {
			for _, name := range strings.Split(*numerics, ",") {
				opt.Numerics = append(opt.Numerics, strings.TrimSpace(name))
			}
		}
		switch *regionClass {
		case "":
		case "xmonotone":
			opt.Regions = []miner.RegionClass{miner.XMonotoneClass}
		case "rectconvex":
			opt.Regions = []miner.RegionClass{miner.RectilinearConvexClass}
		default:
			return fmt.Errorf("unknown region class %q (want xmonotone or rectconvex)", *regionClass)
		}
		res, err := session.MineAll2D(opt)
		if err != nil {
			return err
		}
		rules := res.Rules
		if *top > 0 && len(rules) > *top {
			rules = rules[:*top]
		}
		if *jsonOut {
			rects := make([]jsonRule2D, len(rules))
			for i, r := range rules {
				rects[i] = toJSONRule2D(r)
			}
			regions := make([]jsonRegion, len(res.Regions))
			for i, r := range res.Regions {
				regions[i] = toJSONRegion(r)
			}
			out := struct {
				Pairs      int
				Rectangles []jsonRule2D
				Regions    []jsonRegion `json:",omitempty"`
			}{Pairs: res.Pairs, Rectangles: rects, Regions: regions}
			return json.NewEncoder(w).Encode(out)
		}
		fmt.Fprintf(w, "%d tuples, %d attribute pairs, %d rectangle rules (showing %d):\n",
			res.Tuples, res.Pairs, len(res.Rules), len(rules))
		for _, r := range rules {
			fmt.Fprintln(w, " ", r)
		}
		for _, r := range res.Regions {
			fmt.Fprint(w, r.Describe())
		}
		return nil
	}

	if *numeric2 != "" {
		if *numeric == "" || *objective == "" {
			return fmt.Errorf("2-D mining requires -numeric, -numeric2, and -objective")
		}
		var rules []*miner.Rule2D
		for _, kind := range []miner.RuleKind{miner.OptimizedSupport, miner.OptimizedConfidence} {
			r, err := session.Mine2D(*numeric, *numeric2, *objective, *objValue, kind, *gridSide)
			if err != nil {
				return err
			}
			if r != nil {
				rules = append(rules, r)
			}
		}
		var regionRule *miner.RegionRule
		switch *regionClass {
		case "":
		case "xmonotone":
			regionRule, err = session.MineXMonotone(*numeric, *numeric2, *objective, *objValue, *gridSide)
		case "rectconvex":
			regionRule, err = session.MineRectilinearConvex(*numeric, *numeric2, *objective, *objValue, *gridSide)
		default:
			return fmt.Errorf("unknown region class %q (want xmonotone or rectconvex)", *regionClass)
		}
		if err != nil {
			return err
		}
		if *jsonOut {
			rects := make([]jsonRule2D, len(rules))
			for i, r := range rules {
				rects[i] = toJSONRule2D(*r)
			}
			out := struct {
				Rectangles []jsonRule2D
				Region     *jsonRegion `json:",omitempty"`
			}{Rectangles: rects}
			if regionRule != nil {
				jr := toJSONRegion(*regionRule)
				out.Region = &jr
			}
			return json.NewEncoder(w).Encode(out)
		}
		if len(rules) == 0 {
			fmt.Fprintln(w, "no rectangle meets the thresholds")
		}
		for _, r := range rules {
			fmt.Fprintln(w, r)
		}
		if regionRule != nil {
			fmt.Fprint(w, regionRule.Describe())
		} else if *regionClass != "" {
			fmt.Fprintf(w, "no %s region achieves positive gain\n", *regionClass)
		}
		return nil
	}

	if *numeric != "" || *objective != "" {
		if *numeric == "" || *objective == "" {
			return fmt.Errorf("targeted mining requires both -numeric and -objective")
		}
		conditions, err := parseConds(*conds)
		if err != nil {
			return err
		}
		sup, conf, err := session.Mine(*numeric, *objective, *objValue, conditions)
		if err != nil {
			return err
		}
		if *jsonOut {
			var rules []jsonRule
			for _, r := range []*miner.Rule{sup, conf} {
				if r != nil {
					rules = append(rules, toJSONRule(*r))
				}
			}
			return json.NewEncoder(w).Encode(rules)
		}
		if sup == nil && conf == nil {
			fmt.Fprintln(w, "no rule meets the thresholds")
		}
		if sup != nil {
			fmt.Fprintln(w, sup)
		}
		if conf != nil {
			fmt.Fprintln(w, conf)
		}
		if *topK > 1 {
			rules, err := session.MineTopK(*numeric, *objective, *objValue, miner.OptimizedConfidence, *topK)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "top %d disjoint optimized-confidence ranges:\n", len(rules))
			for i, r := range rules {
				fmt.Fprintf(w, "  %d. %s\n", i+1, r.String())
			}
		}
		if *profile {
			prof, err := session.Profile(*numeric, *objective, *objValue, 25)
			if err != nil {
				return err
			}
			lo, hi := 0.0, 0.0
			mark := false
			if conf != nil {
				lo, hi, mark = conf.Low, conf.High, true
			}
			prof.Render(w, lo, hi, mark)
		}
		return nil
	}

	res, err := session.MineAll()
	if err != nil {
		return err
	}
	rules := res.Rules
	if *top > 0 && len(rules) > *top {
		rules = rules[:*top]
	}
	if *jsonOut {
		out := make([]jsonRule, len(rules))
		for i, r := range rules {
			out[i] = toJSONRule(r)
		}
		return json.NewEncoder(w).Encode(out)
	}
	fmt.Fprintf(w, "%d tuples, %d rules (showing %d):\n", res.Tuples, len(res.Rules), len(rules))
	for _, r := range rules {
		fmt.Fprintln(w, " ", r)
	}
	return nil
}

// jsonF is a float64 that encodes non-finite values as null: region
// bands covering outermost buckets have ±Inf value bounds
// (Boundaries.BucketRange), and bands over empty buckets have no
// observed extremes — JSON cannot encode either.
type jsonF float64

// MarshalJSON implements json.Marshaler.
func (f jsonF) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(f), 0) || math.IsNaN(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// jsonBand is RegionBand with null-safe bounds.
type jsonBand struct {
	BLo, BHi jsonF
	ALo, AHi jsonF
}

// jsonRule2D is Rule2D with null-safe value ranges: columns holding
// ±Inf values yield rectangles whose observed extremes are infinite.
type jsonRule2D struct {
	Kind           miner.RuleKind
	NumericA       string
	NumericB       string
	LowA, HighA    jsonF
	LowB, HighB    jsonF
	Objective      string
	ObjectiveValue bool
	Support        float64
	Count          int
	Confidence     float64
	Baseline       float64
	Gain           float64
	GridRows       int
	GridCols       int
}

func toJSONRule2D(r miner.Rule2D) jsonRule2D {
	return jsonRule2D{
		Kind:     r.Kind,
		NumericA: r.NumericA, NumericB: r.NumericB,
		LowA: jsonF(r.LowA), HighA: jsonF(r.HighA),
		LowB: jsonF(r.LowB), HighB: jsonF(r.HighB),
		Objective: r.Objective, ObjectiveValue: r.ObjectiveValue,
		Support: r.Support, Count: r.Count,
		Confidence: r.Confidence, Baseline: r.Baseline, Gain: r.Gain,
		GridRows: r.GridRows, GridCols: r.GridCols,
	}
}

// jsonRegion is RegionRule in JSON-safe form.
type jsonRegion struct {
	Class          string
	NumericA       string
	NumericB       string
	Objective      string
	ObjectiveValue bool
	Bands          []jsonBand
	Support        float64
	Count          int
	Confidence     float64
	Baseline       float64
	Gain           float64
}

func toJSONRegion(r miner.RegionRule) jsonRegion {
	out := jsonRegion{
		Class:          r.Class.String(),
		NumericA:       r.NumericA,
		NumericB:       r.NumericB,
		Objective:      r.Objective,
		ObjectiveValue: r.ObjectiveValue,
		Support:        r.Support,
		Count:          r.Count,
		Confidence:     r.Confidence,
		Baseline:       r.Baseline,
		Gain:           r.Gain,
	}
	for _, b := range r.Bands {
		out.Bands = append(out.Bands, jsonBand{
			BLo: jsonF(b.BLo), BHi: jsonF(b.BHi), ALo: jsonF(b.ALo), AHi: jsonF(b.AHi),
		})
	}
	return out
}

// jsonRule augments a mined rule with its derived statistics for
// machine-readable output. Lift is omitted when infinite (JSON cannot
// encode +Inf).
type jsonRule struct {
	miner.Rule
	Lift   float64 `json:"lift,omitempty"`
	PValue float64 `json:"pValue"`
}

func toJSONRule(r miner.Rule) jsonRule {
	out := jsonRule{Rule: r, PValue: r.PValue()}
	if l := r.Lift(); !math.IsInf(l, 0) {
		out.Lift = l
	}
	return out
}

// openRelation loads a relation from .csv, .opr, or a .oprs shard
// manifest (OpenData sniffs which binary backend the path holds).
func openRelation(path string) (relation.Relation, error) {
	switch {
	case strings.HasSuffix(path, ".opr"), strings.HasSuffix(path, ".oprs"):
		return relation.OpenData(path)
	case strings.HasSuffix(path, ".csv"):
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return relation.ReadCSVAutoSchema(f)
	default:
		return nil, fmt.Errorf("input must be .csv, .opr, or .oprs, got %q", path)
	}
}

// parseConds parses "A=yes,B=no" into miner conditions.
func parseConds(s string) ([]miner.Condition, error) {
	if s == "" {
		return nil, nil
	}
	var out []miner.Condition
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("condition %q must look like Attr=yes or Attr=no", part)
		}
		switch strings.ToLower(kv[1]) {
		case "yes", "true", "1":
			out = append(out, miner.Condition{Attr: kv[0], Value: true})
		case "no", "false", "0":
			out = append(out, miner.Condition{Attr: kv[0], Value: false})
		default:
			return nil, fmt.Errorf("condition value %q must be yes or no", kv[1])
		}
	}
	return out, nil
}
