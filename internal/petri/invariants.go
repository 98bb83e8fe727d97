package petri

import (
	"fmt"
	"slices"
	"strings"
)

// IncidenceMatrix returns the net's incidence matrix C with one row per
// place (in insertion order) and one column per transition (in insertion
// order): C[p][t] = W(t→p) − W(p→t). Inhibitor arcs do not move tokens and
// are excluded.
func (n *Net) IncidenceMatrix() [][]int {
	placeIdx := make(map[PlaceID]int, len(n.placeOrder))
	for i, p := range n.placeOrder {
		placeIdx[p] = i
	}
	c := make([][]int, len(n.placeOrder))
	for i := range c {
		c[i] = make([]int, len(n.transOrder))
	}
	for j, tid := range n.transOrder {
		for _, a := range n.inputs[tid] {
			if a.Inhibitor {
				continue
			}
			c[placeIdx[a.Place]][j] -= a.Weight
		}
		for _, a := range n.outputs[tid] {
			c[placeIdx[a.Place]][j] += a.Weight
		}
	}
	return c
}

// PInvariants returns a basis of non-negative place invariants: integer
// weight vectors y ≥ 0, y ≠ 0 with yᵀC = 0. For each invariant, the
// weighted token sum Σ y[p]·M(p) is constant over all reachable markings.
// The result maps each invariant to its weights by place.
//
// The computation is the Farkas/Martinez-Silva style positive-basis
// construction; for the small presentation and floor-control nets in this
// system it is exact and fast. Large dense nets may produce a
// non-minimal (but still valid) set.
func (n *Net) PInvariants() []map[PlaceID]int {
	c := n.IncidenceMatrix()
	rows := len(c)
	if rows == 0 {
		return nil
	}
	cols := len(c[0])

	// Working table [D | B]: D starts as C, B as the identity. We
	// eliminate columns of D by forming positive combinations of rows.
	type row struct {
		d []int // remaining incidence part
		b []int // combination of original rows (the candidate invariant)
	}
	table := make([]row, rows)
	for i := 0; i < rows; i++ {
		d := make([]int, cols)
		copy(d, c[i])
		b := make([]int, rows)
		b[i] = 1
		table[i] = row{d: d, b: b}
	}

	for j := 0; j < cols; j++ {
		var next []row
		var pos, neg []row
		for _, r := range table {
			switch {
			case r.d[j] == 0:
				next = append(next, r)
			case r.d[j] > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		// Pair every positive row with every negative row.
		for _, rp := range pos {
			for _, rn := range neg {
				a, b := rp.d[j], -rn.d[j]
				g := gcd(a, b)
				ka, kb := b/g, a/g
				nd := make([]int, cols)
				nb := make([]int, rows)
				for k := 0; k < cols; k++ {
					nd[k] = ka*rp.d[k] + kb*rn.d[k]
				}
				for k := 0; k < rows; k++ {
					nb[k] = ka*rp.b[k] + kb*rn.b[k]
				}
				reduceRow(nd, nb)
				next = append(next, row{d: nd, b: nb})
			}
		}
		table = next
		if len(table) == 0 {
			return nil
		}
	}

	var out []map[PlaceID]int
	seen := make(map[string]bool)
	for _, r := range table {
		inv := make(map[PlaceID]int)
		nonzero := false
		for i, w := range r.b {
			if w != 0 {
				inv[n.placeOrder[i]] = w
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		key := invKey(inv)
		if !seen[key] {
			seen[key] = true
			out = append(out, inv)
		}
	}
	return out
}

// TInvariants returns a basis of non-negative transition invariants:
// integer vectors x ≥ 0, x ≠ 0 with Cx = 0. Firing every transition t
// exactly x[t] times (in some enabled order) reproduces the starting
// marking — the cyclic behaviours of the net, e.g. one full
// request→grant→release rotation of the floor-control net.
func (n *Net) TInvariants() []map[TransitionID]int {
	c := n.IncidenceMatrix()
	if len(c) == 0 || len(c[0]) == 0 {
		return nil
	}
	// T-invariants of C are P-invariants of Cᵀ: reuse the same positive
	// basis construction on the transpose.
	rows := len(c[0]) // one row per transition
	cols := len(c)    // one column per place
	type row struct {
		d []int
		b []int
	}
	table := make([]row, rows)
	for i := 0; i < rows; i++ {
		d := make([]int, cols)
		for j := 0; j < cols; j++ {
			d[j] = c[j][i]
		}
		b := make([]int, rows)
		b[i] = 1
		table[i] = row{d: d, b: b}
	}
	for j := 0; j < cols; j++ {
		var next, pos, neg []row
		for _, r := range table {
			switch {
			case r.d[j] == 0:
				next = append(next, r)
			case r.d[j] > 0:
				pos = append(pos, r)
			default:
				neg = append(neg, r)
			}
		}
		for _, rp := range pos {
			for _, rn := range neg {
				a, b := rp.d[j], -rn.d[j]
				g := gcd(a, b)
				ka, kb := b/g, a/g
				nd := make([]int, cols)
				nb := make([]int, rows)
				for k := 0; k < cols; k++ {
					nd[k] = ka*rp.d[k] + kb*rn.d[k]
				}
				for k := 0; k < rows; k++ {
					nb[k] = ka*rp.b[k] + kb*rn.b[k]
				}
				reduceRow(nd, nb)
				next = append(next, row{d: nd, b: nb})
			}
		}
		table = next
		if len(table) == 0 {
			return nil
		}
	}
	var out []map[TransitionID]int
	seen := make(map[string]bool)
	for _, r := range table {
		inv := make(map[TransitionID]int)
		nonzero := false
		for i, w := range r.b {
			if w != 0 {
				inv[n.transOrder[i]] = w
				nonzero = true
			}
		}
		if !nonzero {
			continue
		}
		parts := make([]string, 0, len(inv))
		for t, w := range inv {
			parts = append(parts, fmt.Sprintf("%s:%d", t, w))
		}
		slices.Sort(parts)
		key := strings.Join(parts, ",")
		if !seen[key] {
			seen[key] = true
			out = append(out, inv)
		}
	}
	return out
}

// CheckPInvariant verifies that the weighted token sum is identical for
// two markings under the given invariant.
func CheckPInvariant(inv map[PlaceID]int, a, b Marking) bool {
	return weightedSum(inv, a) == weightedSum(inv, b)
}

// InvariantSum returns the weighted token sum of a marking under inv.
func InvariantSum(inv map[PlaceID]int, m Marking) int {
	return weightedSum(inv, m)
}

func weightedSum(inv map[PlaceID]int, m Marking) int {
	s := 0
	for p, w := range inv {
		s += w * m[p]
	}
	return s
}

func invKey(inv map[PlaceID]int) string {
	parts := make([]string, 0, len(inv))
	for p, w := range inv {
		parts = append(parts, fmt.Sprintf("%s:%d", p, w))
	}
	// Order-independent key.
	slices.Sort(parts)
	return strings.Join(parts, ",")
}

// reduceRow divides both vectors by the gcd of all their entries.
func reduceRow(d, b []int) {
	g := 0
	for _, v := range d {
		g = gcd(g, abs(v))
	}
	for _, v := range b {
		g = gcd(g, abs(v))
	}
	if g > 1 {
		for i := range d {
			d[i] /= g
		}
		for i := range b {
			b[i] /= g
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
