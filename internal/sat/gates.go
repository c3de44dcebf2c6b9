// Gate emitters for the sweep encoder, which owns the per-frame Tseitin
// encoding of And-Inverter Graphs (one clause triple per AND node).

package sat

// FalseLit allocates a fresh variable constrained to false: the image of
// the AIG constant node. One per solver is enough; share it across
// frames.
func FalseLit(s *Solver) Lit {
	v := s.NewVar()
	s.AddClause(Neg(v))
	return Pos(v)
}

// XorGate returns a literal d with d ⇔ (a ⊕ b) enforced: the difference
// literal of a sweep proof obligation, assumed true to ask "can these two
// signals differ?".
func XorGate(s *Solver, a, b Lit) Lit {
	d := Pos(s.NewVar())
	s.AddClause(d.Not(), a, b)
	s.AddClause(d.Not(), a.Not(), b.Not())
	s.AddClause(d, a.Not(), b)
	s.AddClause(d, a, b.Not())
	return d
}

// Equal adds the two clauses forcing a ⇔ b — the class-constraint used
// for the induction hypothesis frames.
func Equal(s *Solver, a, b Lit) {
	s.AddClause(a.Not(), b)
	s.AddClause(a, b.Not())
}
