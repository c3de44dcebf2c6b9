package algebraic

import "repro/internal/logic"

// Kernel is a cube-free quotient of a cover together with its co-kernel.
type Kernel struct {
	K        *logic.Cover
	CoKernel logic.Cube
}

// Kernels computes all kernels of f (Brayton–McMullen recursion). The
// cover itself, made cube-free, is included (the level-|vars| kernel).
// Single-cube covers have no kernels.
func Kernels(f *logic.Cover) []Kernel {
	if len(f.Cubes) < 2 {
		return nil
	}
	cf, cc := MakeCubeFree(f)
	var out []Kernel
	seen := make(map[string]bool)
	add := func(k *logic.Cover, co logic.Cube) {
		key := CoverKey(k)
		if seen[key] || len(k.Cubes) < 2 {
			return
		}
		seen[key] = true
		out = append(out, Kernel{K: k, CoKernel: co})
	}
	add(cf, cc)
	var rec func(g *logic.Cover, co logic.Cube, minLit int)
	rec = func(g *logic.Cover, co logic.Cube, minLit int) {
		n := g.N
		for lit := minLit; lit < 2*n; lit++ {
			v := lit / 2
			phase := logic.LitNeg
			if lit%2 == 1 {
				phase = logic.LitPos
			}
			// Count cubes containing this literal.
			cnt := 0
			for _, c := range g.Cubes {
				if c.Lit(v) == phase {
					cnt++
				}
			}
			if cnt < 2 {
				continue
			}
			d := logic.NewCube(n)
			d.SetLit(v, phase)
			q := logic.NewCover(n)
			for _, c := range g.Cubes {
				if qc, ok := DivideCube(c, d, n); ok {
					q.Add(qc)
				}
			}
			qf, qcc := MakeCubeFree(q)
			// Skip if the co-kernel cube contains an already-tried literal
			// (canonical ordering to avoid duplicates).
			skip := false
			for l2 := 0; l2 < lit; l2++ {
				v2 := l2 / 2
				p2 := logic.LitNeg
				if l2%2 == 1 {
					p2 = logic.LitPos
				}
				if qcc.Lit(v2) == p2 {
					skip = true
					break
				}
			}
			if skip {
				continue
			}
			newCo, ok := co.And(d)
			if !ok {
				continue
			}
			if nc, ok2 := newCo.And(qcc); ok2 {
				newCo = nc
			}
			add(qf, newCo)
			rec(qf, newCo, lit+1)
		}
	}
	rec(cf, cc, 0)
	return out
}
