package hull

import (
	"fmt"
	"math"
)

// Tree is the convex hull tree of Algorithm 4.1. Given points
// Q_0 … Q_{n−1} sorted by strictly increasing X, the preparatory phase
// (Init) computes, in O(n) total time, the branch stacks D_i holding
// the nodes that belong to U_{i+1} (the upper hull of {Q_{i+1}, …,
// Q_{n−1}}) but not to U_i. Afterwards the stack S holds U_0, and the
// restoration phase (Advance) transforms S from U_cur to U_{cur+1} in
// amortized O(1): pop Q_cur, push back D_cur.
//
// The stack is exposed positionally for the tangent searches of
// Algorithm 4.2: position StackLen()−1 is the top (the leftmost hull
// node Q_cur), position 0 the bottom (the rightmost node Q_{n−1});
// walking down the stack visits the hull clockwise (left to right).
//
// The branch stacks never change after Init, so one prepared tree can
// serve many sweeps: CopyFrom gives a sweep its own stack and positions
// over another tree's branch arena.
type Tree struct {
	pts   []Point
	stack []int
	pos   []int
	cur   int
	// Branch stacks: D_i is dBuf[dOff[i+1]:dOff[i]], with dOff[n] = 0.
	// Every node is popped at most once during the preparatory phase and
	// all pops for step i are contiguous, so the branches are ranges of
	// one arena addressed by int32 offsets.
	dOff []int32
	dBuf []int
	// ownOff and ownBuf are the arena storage Init fills. dOff and dBuf
	// alias them, or, after CopyFrom, the source tree's arena, which this
	// tree only reads: Init writes to ownOff and ownBuf alone.
	ownOff []int32
	ownBuf []int
}

// Init runs the preparatory phase over pts, which must be sorted by
// strictly increasing X (cumulative bucket sizes guarantee this);
// afterwards the stack holds U_0. The zero Tree is ready for Init, and
// a re-Init reuses the tree's backing storage when capacities allow:
// callers that solve many small hull problems back to back — the 2-D
// rectangle sweep runs one per row pair — keep one Tree per worker and
// Init it per problem.
func (t *Tree) Init(pts []Point) error {
	n := len(pts)
	if n == 0 {
		return fmt.Errorf("hull: no points")
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("hull: %d points exceed the branch arena's int32 offsets", n)
	}
	for i := 1; i < n; i++ {
		if pts[i].X <= pts[i-1].X {
			return fmt.Errorf("hull: X not strictly increasing at %d (%g after %g)", i, pts[i].X, pts[i-1].X)
		}
	}
	t.pts = pts
	t.stack = intsCap(t.stack, n)
	t.pos = intsCap(t.pos, n)[:n]
	for i := range t.pos {
		t.pos[i] = -1
	}
	if cap(t.ownOff) < n+1 {
		t.ownOff = make([]int32, n+1)
	}
	off := t.ownOff[:n+1]
	// At most n−1 pops: buf never outgrows its capacity n.
	buf := intsCap(t.ownBuf, n)
	off[n] = 0
	for i := n - 1; i >= 0; i-- {
		// Clockwise search: pop hull nodes that fall below the tangent
		// from Q_i, recording them on the branch stack D_i.
		for len(t.stack) >= 2 {
			top := t.stack[len(t.stack)-1]
			second := t.stack[len(t.stack)-2]
			if CompareSlopes(t.pts[i], t.pts[top], t.pts[second]) > 0 {
				break
			}
			t.stack = t.stack[:len(t.stack)-1]
			t.pos[top] = -1
			buf = append(buf, top)
		}
		off[i] = int32(len(buf))
		t.push(i)
	}
	t.ownOff, t.ownBuf = off, buf
	t.dOff, t.dBuf = off, buf
	t.cur = 0
	return nil
}

// CopyFrom makes t a copy of src's current hull state for an
// independent sweep: t gets its own stack and positions and reads
// src's points and branch arena without changing them. src may serve
// any number of such copies, concurrently, as long as nothing advances
// or re-Inits src itself. A later Init on t fills t's own arena, never
// src's.
func (t *Tree) CopyFrom(src *Tree) {
	n := len(src.pts)
	t.pts = src.pts
	t.stack = append(intsCap(t.stack, n), src.stack...)
	t.pos = append(intsCap(t.pos, n), src.pos...)
	t.cur = src.cur
	t.dOff, t.dBuf = src.dOff, src.dBuf
}

// intsCap returns buf emptied, with capacity for at least n ints.
func intsCap(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, 0, n)
	}
	return buf[:0]
}

// push puts node on top of S.
func (t *Tree) push(node int) {
	t.stack = append(t.stack, node)
	t.pos[node] = len(t.stack) - 1
}

// Advance performs one restoration step, turning U_cur into U_{cur+1}.
// It panics if the tree is already at the last suffix.
func (t *Tree) Advance() {
	if t.cur >= len(t.pts)-1 {
		panic("hull: Advance past the last suffix hull")
	}
	// Pop Q_cur …
	top := t.stack[len(t.stack)-1]
	if top != t.cur {
		panic(fmt.Sprintf("hull: stack top %d is not Q_%d; tree corrupted", top, t.cur))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.pos[top] = -1
	// … and push back the branch D_cur in top-to-bottom order (reverse
	// of pop order), which restores U_{cur+1} with Q_{cur+1} on top.
	branch := t.dBuf[t.dOff[t.cur+1]:t.dOff[t.cur]]
	for j := len(branch) - 1; j >= 0; j-- {
		t.push(branch[j])
	}
	t.cur++
}

// AdvanceTo advances until the stack holds U_m. m must be at least the
// current suffix index and less than the number of points.
func (t *Tree) AdvanceTo(m int) {
	if m < t.cur {
		panic(fmt.Sprintf("hull: cannot rewind from U_%d to U_%d", t.cur, m))
	}
	for t.cur < m {
		t.Advance()
	}
}

// StackLen returns the number of nodes on the current hull.
func (t *Tree) StackLen() int { return len(t.stack) }

// NodeAt returns the point index stored at stack position p
// (0 = bottom/rightmost, StackLen()−1 = top/leftmost).
func (t *Tree) NodeAt(p int) int { return t.stack[p] }

// Pos returns the stack position of node, or −1 if the node is not on
// the current hull.
func (t *Tree) Pos(node int) int { return t.pos[node] }
