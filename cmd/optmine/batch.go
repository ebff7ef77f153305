package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"optrule/internal/miner"
	"optrule/internal/relation"
)

// Batch mode: `optmine -batch queries.json` reads a JSON array of
// session queries and answers the WHOLE batch in one plan/execute
// session — a heterogeneous 1-D + 2-D mix costs exactly two relation
// scans, however many queries the file holds.
//
// A queries file looks like:
//
//	[
//	  {"op": "rules", "minConfidence": 0.6},
//	  {"op": "rules", "numeric": "Balance", "objective": "CardLoan",
//	   "conditions": [{"attr": "AutoWithdraw", "value": true}]},
//	  {"op": "rules2d", "numeric": "Balance", "numericB": "Age",
//	   "objective": "CardLoan", "gridSide": 32,
//	   "regions": ["x-monotone"]},
//	  {"op": "topk", "numeric": "Balance", "objective": "CardLoan", "k": 3},
//	  {"op": "average", "numeric": "Balance", "target": "Age",
//	   "minSupport": 0.1}
//	]
//
// Ops: rules, conjunctive, topk, average, support-range, rules2d.
// Kinds: optimized-support, optimized-confidence, optimized-gain.
// Region classes: x-monotone, rectilinear-convex. Omitted thresholds
// and resolutions inherit the command-line flags; `objectiveValue`
// defaults to yes.

// ParseBatch parses and validates a queries JSON document. It is
// strict: unknown fields, unknown op/kind/region names, out-of-range
// thresholds, and malformed shapes are errors — a corrupt batch file
// must fail loudly, not silently mine the wrong thing.
func ParseBatch(data []byte) ([]miner.Query, error) {
	var raws []json.RawMessage
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raws); err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("batch: trailing data after the query array")
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("batch: no queries")
	}
	queries := make([]miner.Query, len(raws))
	for i, raw := range raws {
		q, err := parseQuery(raw)
		if err != nil {
			return nil, fmt.Errorf("batch: query %d: %w", i, err)
		}
		queries[i] = q
	}
	return queries, nil
}

// parseQuery decodes one query object strictly and applies the CLI
// default of objectiveValue=yes when the field is absent.
func parseQuery(raw json.RawMessage) (miner.Query, error) {
	var q miner.Query
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return q, err
	}
	// Probe for the objectiveValue key: JSON cannot distinguish a
	// deliberate false from an absent field, and the CLI convention
	// (like -value) is that an omitted value means yes.
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return q, err
	}
	if _, ok := probe["objectiveValue"]; !ok {
		q.ObjectiveValue = true
	}
	return q, validateQuery(q)
}

// validateQuery rejects shapes that are wrong independent of any
// schema; attribute existence and kinds are checked again (against the
// relation) when the session resolves the query.
func validateQuery(q miner.Query) error {
	if q.MinSupport < 0 || q.MinSupport > 1 {
		return fmt.Errorf("minSupport %g out of [0,1]", q.MinSupport)
	}
	if q.MinConfidence < 0 || q.MinConfidence > 1 {
		return fmt.Errorf("minConfidence %g out of [0,1]", q.MinConfidence)
	}
	if q.Buckets < 0 {
		return fmt.Errorf("negative bucket count %d", q.Buckets)
	}
	if q.GridSide < 0 {
		return fmt.Errorf("negative grid side %d", q.GridSide)
	}
	if q.K < 0 {
		return fmt.Errorf("negative k %d", q.K)
	}
	seen := map[string]bool{}
	for _, name := range q.Numerics {
		if name == "" {
			return fmt.Errorf("empty attribute name in numerics")
		}
		if seen[name] {
			return fmt.Errorf("duplicate attribute %q in numerics", name)
		}
		seen[name] = true
	}
	if q.Numeric != "" && q.Numeric == q.NumericB {
		return fmt.Errorf("numeric and numericB are both %q", q.Numeric)
	}
	return nil
}

// jsonAnswer is one query's machine-readable result.
type jsonAnswer struct {
	Query      miner.Query  `json:"query"`
	Error      string       `json:"error,omitempty"`
	Rules      []jsonRule   `json:"rules,omitempty"`
	Rectangles []jsonRule2D `json:"rectangles,omitempty"`
	Regions    []jsonRegion `json:"regions,omitempty"`
	Range      *jsonAvg     `json:"range,omitempty"`
}

// jsonAvg is AvgRange with stable field names.
type jsonAvg struct {
	Driver, Target string
	Low, High      jsonF
	Support        float64
	Count          int
	Average        float64
	OverallAverage float64
}

// runBatch executes a queries file against the relation in one
// session. Per-query failures are reported (and fail the command)
// without suppressing the other answers. With cacheStats set, the
// session cache's occupancy and hit/miss traffic follow the
// answers (on stderr under -json, keeping stdout a clean document).
func runBatch(rel relation.Relation, path string, cfg miner.Config, jsonOut, cacheStats bool, w *os.File) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	queries, err := ParseBatch(data)
	if err != nil {
		return err
	}
	session, err := miner.NewSession(rel, cfg)
	if err != nil {
		return err
	}
	answers, err := session.ExecuteBatch(queries)
	if err != nil {
		return err
	}
	failed := 0
	if jsonOut {
		out := make([]jsonAnswer, len(answers))
		for i, a := range answers {
			ja := jsonAnswer{Query: a.Query}
			if a.Err != nil {
				failed++
				ja.Error = a.Err.Error()
				out[i] = ja
				continue
			}
			for _, r := range a.Rules {
				ja.Rules = append(ja.Rules, toJSONRule(r))
			}
			for _, r := range a.Rules2D {
				ja.Rectangles = append(ja.Rectangles, toJSONRule2D(r))
			}
			for _, r := range a.Regions {
				ja.Regions = append(ja.Regions, toJSONRegion(r))
			}
			if a.Range != nil {
				ja.Range = &jsonAvg{
					Driver: a.Range.Driver, Target: a.Range.Target,
					Low: jsonF(a.Range.Low), High: jsonF(a.Range.High),
					Support: a.Range.Support, Count: a.Range.Count,
					Average: a.Range.Average, OverallAverage: a.Range.OverallAverage,
				}
			}
			out[i] = ja
		}
		if err := json.NewEncoder(w).Encode(out); err != nil {
			return err
		}
	} else {
		for i, a := range answers {
			fmt.Fprintf(w, "query %d (%s):\n", i, a.Query.Op)
			if a.Err != nil {
				failed++
				fmt.Fprintf(w, "  error: %v\n", a.Err)
				continue
			}
			for _, r := range a.Rules {
				fmt.Fprintln(w, " ", r)
			}
			for _, r := range a.Rules2D {
				fmt.Fprintln(w, " ", r)
			}
			for _, r := range a.Regions {
				fmt.Fprint(w, r.Describe())
			}
			if a.Range != nil {
				fmt.Fprintln(w, " ", a.Range)
			}
			if len(a.Rules) == 0 && len(a.Rules2D) == 0 && len(a.Regions) == 0 && a.Range == nil {
				fmt.Fprintln(w, "  no rule meets the thresholds")
			}
		}
	}
	if cacheStats {
		sw := w
		if jsonOut {
			sw = os.Stderr
		}
		printCacheStats(sw, session.CacheStats())
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d queries failed", failed, len(answers))
	}
	return nil
}

// printCacheStats renders the session cache summary: occupancy and
// hit/miss traffic.
func printCacheStats(w *os.File, st miner.CacheStats) {
	fmt.Fprintf(w, "cache: %d entries, %d/%d bytes, %d hits, %d misses, %d evictions\n",
		st.Entries, st.Bytes, st.MaxBytes, st.Hits, st.Misses, st.Evictions)
}
