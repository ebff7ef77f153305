// Package relation provides the storage substrate of the reproduction:
// a columnar in-memory relation, a paged disk-backed relation for data
// sets that do not fit in main memory, a sharded relation over many
// such files, and CSV / binary codecs.
//
// Every backend and wrapper implements the whole of one read contract,
// Relation, and callers never ask which parts a relation supports. The
// paper's algorithms need two access patterns from it:
//
//   - a sequential scan of selected columns over a row range (bucket
//     assignment and counting, Algorithm 3.1 step 4, and the parallel
//     counting of Algorithm 3.2), optionally with a predicate the
//     storage may use to skip blocks that hold no match; and
//   - a uniform random sample of one numeric column (Algorithm 3.1
//     steps 1–2), served by point reads at the sorted sample indices
//     (package sampling).
//
// ScanCosts prices storage-aligned atoms of a scan so the parallel
// scheduler can cut chunks on block-group and shard boundaries.
// Avoiding random access over the relation is the point: the paper's
// premise is that the database is far larger than main memory, so
// anything but sequential scans and small sorted samples is
// prohibitively expensive.
package relation

import "fmt"

// Kind is the type of an attribute.
type Kind int

const (
	// Numeric attributes hold float64 values (balances, ages, …).
	Numeric Kind = iota
	// Boolean attributes hold yes/no values (CardLoan, …).
	Boolean
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Boolean:
		return "boolean"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one column of a relation.
type Attribute struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of attributes.
type Schema []Attribute

// Validate checks that the schema is non-empty and attribute names are
// unique and non-blank.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("relation: empty schema")
	}
	seen := make(map[string]bool, len(s))
	for i, a := range s {
		if a.Name == "" {
			return fmt.Errorf("relation: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("relation: duplicate attribute name %q", a.Name)
		}
		if a.Kind != Numeric && a.Kind != Boolean {
			return fmt.Errorf("relation: attribute %q has invalid kind %d", a.Name, int(a.Kind))
		}
		seen[a.Name] = true
	}
	return nil
}

// Index returns the position of the attribute with the given name, or
// -1 if absent.
func (s Schema) Index(name string) int {
	for i, a := range s {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// NumericIndices returns the schema positions of all numeric attributes.
func (s Schema) NumericIndices() []int {
	var out []int
	for i, a := range s {
		if a.Kind == Numeric {
			out = append(out, i)
		}
	}
	return out
}

// BooleanIndices returns the schema positions of all Boolean attributes.
func (s Schema) BooleanIndices() []int {
	var out []int
	for i, a := range s {
		if a.Kind == Boolean {
			out = append(out, i)
		}
	}
	return out
}

// Names returns the attribute names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, a := range s {
		out[i] = a.Name
	}
	return out
}

// ColumnSet selects columns for a scan, by schema position.
type ColumnSet struct {
	Numeric []int // positions of numeric attributes to materialize
	Bool    []int // positions of Boolean attributes to materialize
}

// Validate checks every requested position against the schema.
func (c ColumnSet) Validate(s Schema) error {
	for _, i := range c.Numeric {
		if i < 0 || i >= len(s) {
			return fmt.Errorf("relation: numeric column %d out of range", i)
		}
		if s[i].Kind != Numeric {
			return fmt.Errorf("relation: column %d (%s) is not numeric", i, s[i].Name)
		}
	}
	for _, i := range c.Bool {
		if i < 0 || i >= len(s) {
			return fmt.Errorf("relation: bool column %d out of range", i)
		}
		if s[i].Kind != Boolean {
			return fmt.Errorf("relation: column %d (%s) is not boolean", i, s[i].Name)
		}
	}
	return nil
}

// Batch is one chunk of scanned tuples in columnar form. Numeric[i] and
// Bool[j] are parallel to the requesting ColumnSet's Numeric and Bool
// slices; each has length Len. Batches are reused between callbacks —
// callers must not retain the slices after the callback returns.
type Batch struct {
	Len     int
	Numeric [][]float64
	Bool    [][]bool
}

// Relation is a read-only table of tuples: the one read contract every
// backend and wrapper implements in full. Three rules make every method
// meaningful on every backend:
//
//   - a nil predicate means a plain range scan;
//   - a backend without zone maps delivers every row of the range and
//     never calls skip;
//   - nil costs mean every row costs the same to read.
type Relation interface {
	// Schema returns the relation's schema.
	Schema() Schema
	// NumTuples returns the number of tuples.
	NumTuples() int
	// Scan streams the selected columns in storage order, invoking fn
	// with reused batches. fn returning an error aborts the scan and the
	// error is propagated. It is ScanRange over [0, NumTuples()).
	Scan(cols ColumnSet, fn func(*Batch) error) error
	// ScanRange streams rows [start, end) like Scan. Disjoint ranges
	// may be scanned concurrently.
	ScanRange(start, end int, cols ColumnSet, fn func(*Batch) error) error
	// ScanRangePruned is ScanRange that may skip whole storage blocks
	// which provably hold no row matching pred. Pruning is an
	// optimization, not a filter: delivered rows still need the
	// caller's filter. Skipped rows are reported through skip in row
	// order relative to the delivered batches, so callers keep exact
	// logical-row accounting; skip may be nil when pred is nil.
	ScanRangePruned(start, end int, cols ColumnSet, pred *Predicate, skip func(rows int) error, fn func(*Batch) error) error
	// ReadNumericPoints reads the numeric attribute attr at rows, which
	// must be sorted ascending and may repeat (with-replacement draws);
	// out must have len(rows) and receives out[i] = value at rows[i].
	// Concurrent calls are allowed, with each other and with scans: the
	// sampling phase point-reads several attributes at once.
	ReadNumericPoints(attr int, rows []int, out []float64) error
	// ScanCosts prices a scan of cols under pred in storage-aligned
	// atoms: cuts (len k+1, cuts[0] = 0, cuts[k] = NumTuples()) bound
	// the atoms and costs (len k) estimate each one's read cost. An atom
	// costs 0 only when scanning it under pred provably delivers no
	// row. Nil costs mean rows cost the same (see PlanScanChunks).
	ScanCosts(cols ColumnSet, pred *Predicate) (cuts []int, costs []int64)
}

// DefaultBatchSize is the number of tuples per scan batch.
const DefaultBatchSize = 8192
