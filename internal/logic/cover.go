package logic

import "strings"

// Cover is a sum of cubes over a fixed number of variables. The zero-cube
// cover denotes the constant-0 function; a cover containing the universal
// cube denotes constant 1 (possibly among other cubes).
type Cover struct {
	N     int
	Cubes []Cube
}

// NewCover returns an empty (constant-0) cover over n variables.
func NewCover(n int) *Cover {
	return &Cover{N: n}
}

// One returns the constant-1 cover over n variables.
func One(n int) *Cover {
	f := NewCover(n)
	f.Add(NewCube(n))
	return f
}

// Zero returns the constant-0 cover over n variables.
func Zero(n int) *Cover { return NewCover(n) }

// Add appends a cube, dropping it if empty.
func (f *Cover) Add(c Cube) {
	if c.N != f.N {
		panic("logic: cube/cover size mismatch")
	}
	if c.IsEmpty() {
		return
	}
	f.Cubes = append(f.Cubes, c)
}

// Clone returns a deep copy.
func (f *Cover) Clone() *Cover {
	g := NewCover(f.N)
	g.Cubes = make([]Cube, 0, len(f.Cubes))
	for _, c := range f.Cubes {
		g.Cubes = append(g.Cubes, c.Clone())
	}
	return g
}

// IsZero reports whether the cover has no cubes (syntactically constant 0).
func (f *Cover) IsZero() bool { return len(f.Cubes) == 0 }

// IsZeroFunction reports whether the cover denotes the constant-0 function.
// Because Add drops empty cubes, every stored cube is a non-empty implicant,
// so this coincides with IsZero for covers built through the package API.
func (f *Cover) IsZeroFunction() bool {
	for _, c := range f.Cubes {
		if !c.IsEmpty() {
			return false
		}
	}
	return true
}

// HasFullCube reports whether some cube is universal.
func (f *Cover) HasFullCube() bool {
	for _, c := range f.Cubes {
		if c.IsFull() {
			return true
		}
	}
	return false
}

// NumLits returns the total literal count of the cover — the standard
// SIS-style cost metric for factored/two-level forms.
func (f *Cover) NumLits() int {
	n := 0
	for _, c := range f.Cubes {
		n += c.CountLits()
	}
	return n
}

// Eval evaluates the cover under a complete assignment.
func (f *Cover) Eval(assign []bool) bool {
	for _, c := range f.Cubes {
		if c.Eval(assign) {
			return true
		}
	}
	return false
}

// Cofactor returns the cofactor f|c (Shannon cofactor with respect to a cube).
func (f *Cover) Cofactor(c Cube) *Cover {
	g := NewCover(f.N)
	g.Cubes = make([]Cube, 0, len(f.Cubes))
	for _, d := range f.Cubes {
		if r, ok := d.Cofactor(c); ok {
			g.Cubes = append(g.Cubes, r)
		}
	}
	return g
}

// CofactorVar returns the cofactor with respect to a single literal.
func (f *Cover) CofactorVar(v int, phase bool) *Cover {
	c := NewCube(f.N)
	if phase {
		c.SetLit(v, LitPos)
	} else {
		c.SetLit(v, LitNeg)
	}
	return f.Cofactor(c)
}

// mostBinate selects the splitting variable for the unate recursive
// paradigm: the variable appearing in both phases in the largest number of
// cubes; ties broken by total appearance count, then by the lowest index.
// Returns -1 if the cover is unate in every variable it depends on. It is
// the tautology kernel's rule, run on a copy of the cubes.
func (f *Cover) mostBinate() int {
	if len(f.Cubes) == 0 {
		return -1
	}
	s := getStack(len(f.Cubes[0].w))
	for _, c := range f.Cubes {
		s.buf = append(s.buf, c.w...)
	}
	v := s.mostBinate(0, len(s.buf))
	putStack(s)
	return v
}

// IsUnate reports whether the cover is unate in every variable, i.e. no
// variable appears in both phases across the cubes. Works word-parallel on
// the positional encoding: a variable's two bits are 01 for x', 10 for x,
// and the unused high bits of the last word stay 11, so they never
// register in either phase mask.
func (f *Cover) IsUnate() bool {
	if len(f.Cubes) == 0 {
		return true
	}
	nw := len(f.Cubes[0].w)
	neg := make([]uint64, nw)
	pos := make([]uint64, nw)
	const odd = 0x5555555555555555
	for _, c := range f.Cubes {
		for i, x := range c.w {
			neg[i] |= x &^ (x >> 1) & odd
			pos[i] |= (x >> 1) &^ x & odd
		}
	}
	for i := range neg {
		if neg[i]&pos[i] != 0 {
			return false
		}
	}
	return true
}

// anyBoundVar returns some variable bound in some cube, or -1.
func (f *Cover) anyBoundVar() int {
	for _, c := range f.Cubes {
		for v := 0; v < f.N; v++ {
			if l := c.Lit(v); l == LitNeg || l == LitPos {
				return v
			}
		}
	}
	return -1
}

// Covers reports whether f ⊇ g for covers (every cube of g is covered).
func (f *Cover) Covers(g *Cover) bool {
	for _, c := range g.Cubes {
		if !f.CoversCube(c) {
			return false
		}
	}
	return true
}

// EquivalentTo reports functional equality of two covers.
func (f *Cover) EquivalentTo(g *Cover) bool {
	return f.Covers(g) && g.Covers(f)
}

// Scc removes cubes single-cube-contained in another cube of the cover.
func (f *Cover) Scc() {
	out := f.Cubes[:0]
	for i, c := range f.Cubes {
		dominated := false
		for j, d := range f.Cubes {
			if i == j {
				continue
			}
			if d.ContainsCube(c) && !(c.ContainsCube(d) && j > i) {
				// c ⊆ d; when the two cubes are equal keep the first.
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	f.Cubes = out
}

// Complement returns the complement of f via the unate recursive paradigm.
func (f *Cover) Complement() *Cover {
	if len(f.Cubes) == 0 {
		return One(f.N)
	}
	if f.HasFullCube() {
		return Zero(f.N)
	}
	if len(f.Cubes) == 1 {
		return complementCube(f.Cubes[0])
	}
	v := f.mostBinate()
	if v < 0 {
		v = f.anyBoundVar()
		if v < 0 {
			// No bound variables but no full cube: impossible (such a
			// cube would be full), defensive constant 0.
			return Zero(f.N)
		}
	}
	hi := f.CofactorVar(v, true).Complement()
	lo := f.CofactorVar(v, false).Complement()
	r := NewCover(f.N)
	for _, c := range hi.Cubes {
		d := c.Clone()
		d.SetLit(v, LitPos)
		r.Add(d)
	}
	for _, c := range lo.Cubes {
		d := c.Clone()
		d.SetLit(v, LitNeg)
		r.Add(d)
	}
	r.Scc()
	return r
}

// complementCube returns the DeMorgan complement of a single cube.
func complementCube(c Cube) *Cover {
	r := NewCover(c.N)
	for v := 0; v < c.N; v++ {
		switch c.Lit(v) {
		case LitNeg:
			d := NewCube(c.N)
			d.SetLit(v, LitPos)
			r.Add(d)
		case LitPos:
			d := NewCube(c.N)
			d.SetLit(v, LitNeg)
			r.Add(d)
		}
	}
	return r
}

// Or returns f + g.
func Or(f, g *Cover) *Cover {
	if f.N != g.N {
		panic("logic: cover size mismatch")
	}
	r := f.Clone()
	for _, c := range g.Cubes {
		r.Add(c.Clone())
	}
	r.Scc()
	return r
}

// And returns f · g by pairwise cube intersection.
func And(f, g *Cover) *Cover {
	if f.N != g.N {
		panic("logic: cover size mismatch")
	}
	r := NewCover(f.N)
	for _, a := range f.Cubes {
		for _, b := range g.Cubes {
			if c, ok := a.And(b); ok {
				r.Add(c)
			}
		}
	}
	r.Scc()
	return r
}

// Xor returns f ⊕ g = f·g' + f'·g.
func Xor(f, g *Cover) *Cover {
	return Or(And(f, g.Complement()), And(f.Complement(), g))
}

// Not returns the complement (alias for Complement, for call-site symmetry).
func Not(f *Cover) *Cover { return f.Complement() }

// Support returns the set of variables the cover syntactically depends on.
func (f *Cover) Support() []int {
	seen := make([]bool, f.N)
	for _, c := range f.Cubes {
		for v := 0; v < f.N; v++ {
			if l := c.Lit(v); l == LitNeg || l == LitPos {
				seen[v] = true
			}
		}
	}
	var out []int
	for v, s := range seen {
		if s {
			out = append(out, v)
		}
	}
	return out
}

// DependsOn reports whether f semantically depends on variable v
// (f|v=0 differs from f|v=1).
func (f *Cover) DependsOn(v int) bool {
	hi := f.CofactorVar(v, true)
	lo := f.CofactorVar(v, false)
	return !hi.EquivalentTo(lo)
}

// Remap returns a copy of f over m variables where old variable i becomes
// varMap[i]. varMap entries must be distinct and < m; a cover variable
// outside the map's bound positions must not be in the support.
func (f *Cover) Remap(m int, varMap []int) *Cover {
	g := NewCover(m)
	for _, c := range f.Cubes {
		d := NewCube(m)
		for v := 0; v < f.N; v++ {
			if l := c.Lit(v); l != LitBoth {
				if v >= len(varMap) || varMap[v] < 0 {
					panic("logic: Remap: bound variable not in map")
				}
				d.SetLit(varMap[v], l)
			}
		}
		g.Add(d)
	}
	return g
}

// String renders the cover one cube per line (espresso PLA body style).
func (f *Cover) String() string {
	if len(f.Cubes) == 0 {
		return "<zero>"
	}
	lines := make([]string, len(f.Cubes))
	for i, c := range f.Cubes {
		lines[i] = c.String()
	}
	return strings.Join(lines, "\n")
}

// ParseCover parses whitespace-separated cube strings over n variables.
func ParseCover(n int, cubes ...string) (*Cover, error) {
	f := NewCover(n)
	for _, s := range cubes {
		c, err := ParseCube(s)
		if err != nil {
			return nil, err
		}
		if c.N != n {
			c2 := NewCube(n)
			for v := 0; v < c.N && v < n; v++ {
				c2.SetLit(v, c.Lit(v))
			}
			c = c2
		}
		f.Add(c)
	}
	return f, nil
}

// MustParseCover is ParseCover that panics on error; for tests and tables.
func MustParseCover(n int, cubes ...string) *Cover {
	f, err := ParseCover(n, cubes...)
	if err != nil {
		panic(err)
	}
	return f
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
