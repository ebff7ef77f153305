package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// validBatch is a well-formed heterogeneous queries file used by the
// parser and end-to-end tests.
const validBatch = `[
  {"op": "rules", "minConfidence": 0.6},
  {"op": "rules", "numeric": "Balance", "objective": "CardLoan",
   "conditions": [{"attr": "AutoWithdraw", "value": true}]},
  {"op": "rules2d", "numeric": "Balance", "numericB": "Age",
   "objective": "CardLoan", "gridSide": 16, "regions": ["x-monotone"]},
  {"op": "topk", "numeric": "Balance", "objective": "CardLoan", "k": 3},
  {"op": "average", "numeric": "Balance", "target": "Age", "minSupport": 0.1},
  {"op": "conjunctive", "numeric": "Age",
   "objectives": [{"attr": "CardLoan", "value": true}],
   "conditions": [{"attr": "Mortgage", "value": true}]}
]`

func TestParseBatchValid(t *testing.T) {
	queries, err := ParseBatch([]byte(validBatch))
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 6 {
		t.Fatalf("parsed %d queries, want 6", len(queries))
	}
	// The CLI convention: omitted objectiveValue means yes.
	if !queries[1].ObjectiveValue {
		t.Errorf("omitted objectiveValue did not default to yes")
	}
	if queries[3].K != 3 {
		t.Errorf("k not parsed: %+v", queries[3])
	}
}

// TestParseBatchCorruption is the table of malformed batch files every
// one of which must be rejected with an error (never a panic, never a
// silently wrong query).
func TestParseBatchCorruption(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty input", ``},
		{"not an array", `{"op": "rules"}`},
		{"empty array", `[]`},
		{"trailing data", `[{"op": "rules"}] [{"op": "rules"}]`},
		{"truncated", `[{"op": "rules"`},
		{"unknown op", `[{"op": "mine-everything"}]`},
		{"numeric op", `[{"op": 3}]`},
		{"unknown field", `[{"op": "rules", "turbo": true}]`},
		{"unknown kind", `[{"op": "rules", "kinds": ["optimized-banana"]}]`},
		{"numeric kind", `[{"op": "rules", "kinds": [1]}]`},
		{"rectangle as region", `[{"op": "rules2d", "objective": "C", "regions": ["rectangle"]}]`},
		{"unknown region", `[{"op": "rules2d", "objective": "C", "regions": ["blob"]}]`},
		{"negative minSupport", `[{"op": "rules", "minSupport": -0.5}]`},
		{"minSupport above one", `[{"op": "rules", "minSupport": 1.5}]`},
		{"minConfidence above one", `[{"op": "rules", "minConfidence": 2}]`},
		{"negative buckets", `[{"op": "rules", "buckets": -10}]`},
		{"negative grid side", `[{"op": "rules2d", "objective": "C", "gridSide": -4}]`},
		{"negative k", `[{"op": "topk", "numeric": "X", "objective": "C", "k": -1}]`},
		{"duplicate pair attribute", `[{"op": "rules2d", "numeric": "X", "numericB": "X", "objective": "C"}]`},
		{"duplicate in numerics", `[{"op": "rules2d", "numerics": ["X", "Y", "X"], "objective": "C"}]`},
		{"empty name in numerics", `[{"op": "rules2d", "numerics": ["X", ""], "objective": "C"}]`},
		{"malformed condition", `[{"op": "rules", "conditions": [{"attr": 5}]}]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseBatch([]byte(tc.data)); err == nil {
				t.Errorf("corrupt batch accepted: %s", tc.data)
			}
		})
	}
}

// TestBatchEndToEnd runs the full -batch mode against a real CSV:
// the valid file answers every query; schema-level corruption (unknown
// or duplicate attributes that only the relation can reveal) fails the
// command while still reporting the healthy answers.
func TestBatchEndToEnd(t *testing.T) {
	csv := writeBankCSV(t, 2000)
	dir := t.TempDir()

	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(validBatch), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.json")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", csv, "-batch", good, "-json"}, f); err != nil {
		t.Fatalf("valid batch failed: %v", err)
	}
	f.Close()
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var answers []map[string]any
	if err := json.Unmarshal(data, &answers); err != nil {
		t.Fatalf("batch output is not JSON: %v", err)
	}
	if len(answers) != 6 {
		t.Fatalf("got %d answers, want 6", len(answers))
	}
	for i, a := range answers {
		if e, ok := a["error"]; ok {
			t.Errorf("answer %d unexpectedly failed: %v", i, e)
		}
	}

	// Unknown attribute: parses fine, fails at resolution, and the
	// command reports the failure.
	bad := filepath.Join(dir, "bad.json")
	badBatch := `[
	  {"op": "rules", "numeric": "Balance", "objective": "CardLoan"},
	  {"op": "rules", "numeric": "NoSuchColumn", "objective": "CardLoan"}
	]`
	if err := os.WriteFile(bad, []byte(badBatch), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-in", csv, "-batch", bad}, os.NewFile(0, os.DevNull))
	if err == nil || !strings.Contains(err.Error(), "1 of 2 queries failed") {
		t.Errorf("unknown attribute not reported: %v", err)
	}
}

// TestBatchCacheStats pins the -cachestats summary: after a batch the
// text output ends with the cache occupancy line.
func TestBatchCacheStats(t *testing.T) {
	csv := writeBankCSV(t, 2000)
	dir := t.TempDir()
	queries := filepath.Join(dir, "q.json")
	if err := os.WriteFile(queries, []byte(validBatch), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.txt")
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", csv, "-batch", queries, "-cachestats"}, f); err != nil {
		t.Fatalf("batch with -cachestats failed: %v", err)
	}
	f.Close()
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "cache: ") {
		t.Errorf("missing cache occupancy line:\n%s", text)
	}
}

// FuzzParseBatch fuzzes the query-JSON parser: any input must either
// parse into a validated query list or return an error — no panics,
// and every parsed query must survive its own validation.
func FuzzParseBatch(f *testing.F) {
	f.Add([]byte(validBatch))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"op": "rules"}]`))
	f.Add([]byte(`[{"op": "topk", "numeric": "X", "objective": "C", "k": 3}]`))
	f.Add([]byte(`[{"op": "rules", "kinds": ["optimized-gain"], "minSupport": 0.5}]`))
	f.Add([]byte(`[{"op": "rules2d", "numerics": ["A", "B", "C"], "objective": "D"}]`))
	f.Add([]byte(`[{"op": "average", "numeric": "X", "target": "Y", "minSupport": 1}]`))
	f.Add([]byte(`{"op": "rules"}`))
	f.Add([]byte(`[{"op": "rules", "minSupport": -1}]`))
	f.Add([]byte(`[{"op": "rules", "turbo": true}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		queries, err := ParseBatch(data)
		if err != nil {
			return
		}
		if len(queries) == 0 {
			t.Fatalf("ParseBatch accepted %q but returned no queries", data)
		}
		for i, q := range queries {
			if err := validateQuery(q); err != nil {
				t.Fatalf("accepted query %d fails its own validation: %v", i, err)
			}
		}
	})
}
