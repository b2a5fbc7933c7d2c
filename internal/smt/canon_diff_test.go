package smt

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
)

// canonReference is Canon as first written: every refinement pass sorts
// each And/Or operand list by that operand's full rendering,
// applyMaps(x, m).String(), recomputed at every enclosing level, and the
// final assignment and key are computed afresh. It is the oracle the
// single-render keyed sort is checked against. passes reports how many
// refinement passes moved an operand.
func canonReference(e Expr) (c CanonResult, passes int) {
	e = acSort(e, localKey)
	comp := analyzeComponents(e)
	for i := 0; i < 4; i++ {
		m := newCanonMaps(comp)
		canonAssign(e, m)
		sorted := acSort(e, func(x Expr) string { return applyMaps(x, m).String() })
		if sorted == e {
			break
		}
		passes++
		e = sorted
	}
	m := newCanonMaps(comp)
	canonAssign(e, m)
	canon := applyMaps(e, m)
	return CanonResult{Expr: canon, Key: canon.String(), Rename: m.vars,
		abs: m.abs, ints: m.ints, strs: m.strs, shifted: m.shifted}, passes
}

// formulaGen builds random formulas over small name and constant pools,
// so variables recur (linking components), constants recur across
// components, and the same template instantiated under two prefixes
// yields locally equivalent operands that only the global numbering can
// order.
type formulaGen struct {
	r      *rand.Rand
	prefix string
	arrays map[string]*Array
}

func (g *formulaGen) v(s Sort) Var {
	return NewVar(fmt.Sprintf("%s%s%d", g.prefix, s, g.r.Intn(3)), s)
}

func (g *formulaGen) intTerm() Expr {
	switch g.r.Intn(6) {
	case 0, 1:
		return Int(int64(g.r.Intn(4)))
	case 2:
		return Add(g.v(SortInt), Int(int64(g.r.Intn(3))))
	case 3:
		return Sub(g.v(SortInt), Int(int64(1+g.r.Intn(2))))
	case 4:
		if g.r.Intn(4) == 0 {
			return Mul(Int(2), g.v(SortInt))
		}
	}
	return g.v(SortInt)
}

func (g *formulaGen) array() *Array {
	id := fmt.Sprintf("%sarr%d", g.prefix, g.r.Intn(2))
	a, ok := g.arrays[id]
	if !ok {
		a = NewArray(id, SortInt)
		for n := g.r.Intn(3); n > 0; n-- {
			a = a.Store(g.intTerm(), g.r.Intn(2) == 0)
		}
		g.arrays[id] = a
	}
	return a
}

func (g *formulaGen) atom() Expr {
	ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
	switch g.r.Intn(8) {
	case 0, 1:
		return Compare(ops[g.r.Intn(6)], g.v(SortInt), g.intTerm())
	case 2:
		return Compare([]CmpOp{EQ, NE}[g.r.Intn(2)], g.v(SortInt), g.intTerm())
	case 3:
		strs := []Expr{Str("a"), Str("b"), g.v(SortString)}
		return Compare([]CmpOp{EQ, NE}[g.r.Intn(2)], g.v(SortString), strs[g.r.Intn(3)])
	case 4:
		return Compare(ops[g.r.Intn(6)], g.v(SortReal), Real(int64(g.r.Intn(5)), 2))
	case 5:
		return Read(g.array(), g.intTerm())
	case 6:
		return g.v(SortBool)
	default:
		return Eq(g.v(SortInt), g.v(SortInt))
	}
}

// formula returns a formula at least depth connective levels deep: on
// the way down, the first operand of every connective is itself a
// connective until depth runs out.
func (g *formulaGen) formula(depth int) Expr {
	if depth <= 0 {
		return g.atom()
	}
	switch g.r.Intn(6) {
	case 0:
		return Not{X: g.formula(depth - 1)}
	case 1:
		return Compare([]CmpOp{EQ, NE}[g.r.Intn(2)], g.formula(depth-1), g.formula(g.r.Intn(depth)))
	}
	xs := []Expr{g.formula(depth - 1)}
	for n := 1 + g.r.Intn(2); n > 0; n-- {
		xs = append(xs, g.formula(g.r.Intn(depth)))
	}
	// Alternate connectives level by level so And/Or do not flatten
	// into their parent and the nesting survives construction.
	if depth%2 == 0 {
		return &NAry{Conj: true, Xs: xs}
	}
	return &NAry{Conj: false, Xs: xs}
}

// template returns a formula generated from seed under prefix: the same
// seed under two prefixes gives two alpha-variants.
func template(seed int64, prefix string, depth int) Expr {
	g := &formulaGen{r: rand.New(rand.NewSource(seed)), prefix: prefix, arrays: map[string]*Array{}}
	return g.formula(depth)
}

// connDepth returns the number of connective levels on e's deepest path.
func connDepth(e Expr) int {
	d := 0
	switch t := e.(type) {
	case *NAry:
		for _, x := range t.Xs {
			d = max(d, connDepth(x))
		}
	case Not:
		d = connDepth(t.X)
	case *Cmp:
		if t.L.Sort() != SortBool {
			return 0
		}
		d = max(connDepth(t.L), connDepth(t.R))
	default:
		return 0
	}
	return d + 1
}

// selectRoots collects the root array IDs e reads.
func selectRoots(e Expr, ids map[string]bool) {
	switch t := e.(type) {
	case *NAry:
		for _, x := range t.Xs {
			selectRoots(x, ids)
		}
	case Not:
		selectRoots(t.X, ids)
	case *Cmp:
		selectRoots(t.L, ids)
		selectRoots(t.R, ids)
	case *Select:
		ids[t.Arr.ID] = true
	}
}

// randomModel assigns every variable and array root of e a seeded value,
// drawn from a range that overlaps the canonical constants so the
// inverse maps and the fresh-value path of TranslateModel both run.
func randomModel(r *rand.Rand, e Expr) *Model {
	m := NewModel()
	vars := VarSet(e)
	for _, n := range sortedKeys(vars) {
		switch vars[n] {
		case SortInt:
			m.Vars[n] = IntValue(int64(r.Intn(8) - 2))
		case SortString:
			m.Vars[n] = StrValue([]string{"k0", "k1", "k2", "zz"}[r.Intn(4)])
		case SortReal:
			m.Vars[n] = RealValue(big.NewRat(int64(r.Intn(9)-4), 3))
		case SortBool:
			m.Vars[n] = BoolValue(r.Intn(2) == 0)
		}
	}
	ids := map[string]bool{}
	selectRoots(e, ids)
	for _, id := range sortedKeys(ids) {
		ent := map[string]bool{}
		for k := r.Intn(3); k > 0; k-- {
			ent[IntValue(int64(r.Intn(6))).String()] = r.Intn(2) == 0
		}
		m.Arrays[id] = ent
	}
	return m
}

// TestCanonKeyedSortMatchesReference checks Canon against the
// per-operand rendering sort on seeded random formulas: nested And/Or/Not,
// Bool-sorted comparisons over connectives, Int/String/Real atoms,
// reads of stored arrays, constants shared across components, and
// role-duplicated operands. Key, Expr, Rename, the constant maps and
// model translation must all agree.
func TestCanonKeyedSortMatchesReference(t *testing.T) {
	const n = 1000
	r := rand.New(rand.NewSource(20231))
	refined := 0
	for i := 0; i < n; i++ {
		// One template instantiated by both roles, plus an unrelated one.
		seed := r.Int63()
		xs := []Expr{template(seed, "A1.", 3), template(seed, "A2.", 3), template(r.Int63(), "B.", 1+r.Intn(3))}
		r.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
		f := Expr(&NAry{Conj: r.Intn(2) == 0, Xs: xs})
		if d := connDepth(f); d < 4 {
			t.Fatalf("formula %d has depth %d, want >= 4", i, d)
		}

		got := Canon(f)
		want, passes := canonReference(f)
		if passes > 0 {
			refined++
		}
		if got.Key != want.Key {
			t.Fatalf("formula %d: key\n got %s\nwant %s\ninput %s", i, got.Key, want.Key, f)
		}
		if got.Expr.String() != want.Expr.String() || got.Key != got.Expr.String() {
			t.Fatalf("formula %d: expr\n got %s\nwant %s", i, got.Expr, want.Expr)
		}
		if !reflect.DeepEqual(got.Rename, want.Rename) {
			t.Fatalf("formula %d: rename\n got %v\nwant %v", i, got.Rename, want.Rename)
		}
		if !reflect.DeepEqual([]any{got.abs, got.ints, got.strs, got.shifted},
			[]any{want.abs, want.ints, want.strs, want.shifted}) {
			t.Fatalf("formula %d: constant maps differ", i)
		}
		m := randomModel(r, got.Expr)
		if g, w := TranslateModel(m, got).String(), TranslateModel(m, want).String(); g != w {
			t.Fatalf("formula %d: translated model\n got %s\nwant %s", i, g, w)
		}
	}
	// The corpus must exercise the refinement passes the keyed sort
	// replaced, not only pass-1 ordering.
	if refined < n/10 {
		t.Fatalf("only %d of %d formulas needed a refinement pass", refined, n)
	}
	t.Logf("%d of %d formulas needed a refinement pass", refined, n)
}
