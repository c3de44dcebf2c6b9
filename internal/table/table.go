// Package table renders Table I of the paper: every benchmark circuit run
// through the three evaluation flows (script.delay, + retiming +
// combinational optimization, + resynthesis), one row per circuit.
//
// It is the shared core of cmd/tablegen and the determinism regression
// suite. Circuits are evaluated concurrently on a parexec pool — each on a
// private network (Circuit.Build constructs fresh), under the guard
// layer's transactional clones, tracing into a private tracer — and every
// byte of output is buffered per circuit and emitted in suite order, so
// the rendered table is identical for any worker count. Wall-clock row
// suffixes are opt-in (ShowTimes) precisely because they are the one
// non-deterministic ingredient.
package table

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/flows"
	"repro/internal/genlib"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/parexec"
)

// Options configures one table run.
type Options struct {
	// Circuits selects benchmark names; empty selects the full Table I
	// suite. Unknown names fail before any flow runs.
	Circuits []string
	// Verify checks every flow output against its source circuit.
	Verify bool
	// Workers is the number of circuits evaluated at once (<= 0 selects
	// GOMAXPROCS). It schedules circuits only: the parallel passes inside
	// each flow always run GOMAXPROCS wide. Output is independent of both
	// widths, so the table stays byte-identical for any value.
	Workers int
	// ShowTimes appends per-circuit wall time to each row. Off by default:
	// times break byte-for-byte output stability.
	ShowTimes bool
	// Budget bounds flow/pass wall time via the guard layer.
	Budget guard.Budget
	// Tracer, when non-nil, receives every circuit's span tree, merged in
	// suite order.
	Tracer *obs.Tracer
	// JSON, when non-nil, receives the concatenated JSON-lines event
	// streams of the per-circuit tracers, in suite order. Within a circuit
	// the stream is exactly what a dedicated tracer would emit; the t_ms
	// stamps are relative to that circuit's own start.
	JSON io.Writer
	// Substrate selects the flows' technology-independent representation
	// (flows.SubstrateSOP or flows.SubstrateAIG; "" is SOP).
	Substrate string
	// Sweep enables SAT-based sequential sweeping in the flows and in
	// verification: circuits past the exact-reachability limit are proved
	// by K-induction instead of being spot-checked.
	Sweep bool
}

// Summary reports the aggregate line at the bottom of the table.
type Summary struct {
	Wins       int // resynthesis clock <= retiming clock
	Applicable int // circuits where resynthesis applied
	Failures   int // circuits whose flows errored (row missing from table)
}

// row is one circuit's buffered contribution, emitted in suite order.
type row struct {
	out             []byte
	errs            []byte
	json            []byte
	tr              *obs.Tracer
	applicable, win bool
	verifyFail      bool
}

// Run evaluates the suite and writes the table to w and diagnostics to
// errw. It returns a non-nil error if any flow output fails verification
// or a circuit name is unknown; flow failures on individual circuits are
// reported to errw and counted in Summary.Failures without failing the
// run (matching the sequential tablegen behaviour).
func Run(ctx context.Context, w, errw io.Writer, opt Options) (Summary, error) {
	if !flows.KnownSubstrate(opt.Substrate) {
		return Summary{}, fmt.Errorf("table: unknown substrate %q (have %v)", opt.Substrate, flows.SubstrateNames())
	}
	suite := bench.TableI()
	if len(opt.Circuits) > 0 {
		var filtered []bench.Circuit
		for _, name := range opt.Circuits {
			c, ok := bench.ByName(strings.TrimSpace(name))
			if !ok {
				return Summary{}, fmt.Errorf("table: unknown circuit %q", name)
			}
			filtered = append(filtered, c)
		}
		suite = filtered
	}

	lib := genlib.Lib2()
	fmt.Fprintln(w, "TABLE I — Experimental results: applying the resynthesis algorithm")
	fmt.Fprintln(w, "(substrate differs from the paper's SIS/lib2 testbed; compare shapes, not absolutes)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s | %-22s | %-30s | %-30s\n", "", "script.delay", "+ retiming + comb.opt", "+ resynthesis")
	fmt.Fprintf(w, "%-8s | %5s %7s %7s | %5s %7s %7s %-8s | %5s %7s %7s %-8s\n",
		"Circuit", "Reg", "Clk", "Area", "Reg", "Clk", "Area", "note", "Reg", "Clk", "Area", "note")
	fmt.Fprintln(w, strings.Repeat("-", 118))

	rows, mapErr := parexec.Map(ctx, opt.Workers, suite,
		func(ctx context.Context, _ int, c bench.Circuit) (*row, error) {
			return runCircuit(ctx, c, lib, opt), nil
		})

	var sum Summary
	verifyFailed := false
	for _, r := range rows {
		if r == nil {
			continue // cancelled before this circuit started
		}
		errw.Write(r.errs)
		w.Write(r.out)
		if opt.JSON != nil {
			opt.JSON.Write(r.json)
		}
		opt.Tracer.Merge(r.tr)
		if r.verifyFail {
			verifyFailed = true
		}
		if len(r.errs) > 0 && len(r.out) == 0 {
			sum.Failures++
		}
		if r.applicable {
			sum.Applicable++
			if r.win {
				sum.Wins++
			}
		}
	}
	fmt.Fprintln(w, strings.Repeat("-", 118))
	fmt.Fprintf(w, "resynthesis ≤ retiming clock on %d/%d applicable circuits (all outputs verified: %v)\n",
		sum.Wins, sum.Applicable, opt.Verify)
	if verifyFailed {
		return sum, fmt.Errorf("table: flow output failed verification (see diagnostics)")
	}
	if mapErr != nil {
		return sum, mapErr
	}
	return sum, nil
}

// runCircuit evaluates one circuit into a buffered row. It never returns
// an error: failures become diagnostics so one bad circuit does not
// cancel the rest of the sweep.
func runCircuit(ctx context.Context, c bench.Circuit, lib *genlib.Library, opt Options) *row {
	r := &row{}
	var out, errs, jsonBuf bytes.Buffer
	defer func() {
		r.out = out.Bytes()
		r.errs = errs.Bytes()
		r.json = jsonBuf.Bytes()
	}()

	src, err := c.Build()
	if err != nil {
		fmt.Fprintf(&errs, "%s: build failed: %v\n", c.Name, err)
		return r
	}
	var tr *obs.Tracer
	if opt.Tracer != nil || opt.JSON != nil {
		tr = obs.New()
		if opt.JSON != nil {
			tr.SetJSON(&jsonBuf)
		}
		r.tr = tr
	}

	start := time.Now()
	csp := tr.Begin(c.Name)
	cfg := flows.Config{
		Tracer:    tr,
		Budget:    opt.Budget,
		Substrate: opt.Substrate,
		Sweep:     opt.Sweep,
	}
	sd, ret, rsyn, err := flows.RunAll(ctx, src, lib, cfg)
	csp.End()
	if err != nil {
		fmt.Fprintf(&errs, "%s: flow failed: %v\n", c.Name, err)
		return r
	}
	if opt.Verify {
		for i, res := range []*flows.Result{sd, ret, rsyn} {
			if _, err := flows.VerifyVerdict(ctx, src, res, cfg); err != nil {
				fmt.Fprintf(&errs, "%s: flow %d FAILED VERIFICATION: %v\n", c.Name, i, err)
				r.verifyFail = true
				return r
			}
		}
	}
	suffix := ""
	if opt.ShowTimes {
		suffix = fmt.Sprintf("  [%s]", time.Since(start).Round(time.Millisecond))
	}
	fmt.Fprintf(&out, "%-8s | %5d %7.2f %7.0f | %5d %7.2f %7.0f %-8s | %5d %7.2f %7.0f %-8s%s\n",
		c.Name,
		sd.Regs, sd.Clk, sd.Area,
		ret.Regs, ret.Clk, ret.Area, shortNote(ret.Note),
		rsyn.Regs, rsyn.Clk, rsyn.Area, shortNote(rsyn.Note),
		suffix)
	if rsyn.Note == "" {
		r.applicable = true
		r.win = rsyn.Clk <= ret.Clk
	}
	return r
}

// shortNote compresses a flow note to the table's 8-column note field.
func shortNote(s string) string {
	if s == "" {
		return ""
	}
	if i := strings.Index(s, ":"); i > 0 {
		s = s[:i]
	}
	if len(s) > 8 {
		s = s[:8]
	}
	return s
}
