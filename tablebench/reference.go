package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// referenceFile is the committed Table I, relative to the repository root
// the benchmark runs from.
const referenceFile = "table_output.txt"

// tableFlows are the flows of Table I's three column groups, in order.
var tableFlows = []string{"script", "retime", "resyn"}

// reference maps circuit → flow → the "regs clk area" triple that the
// committed Table I (table_output.txt, written by cmd/tablegen) prints.
type reference map[string]map[string]string

// quality formats a cell's Table I numbers exactly as tablegen prints them.
func quality(regs int, clk, area float64) string {
	return fmt.Sprintf("%d %.2f %.0f", regs, clk, area)
}

// readReference parses the rows of a rendered Table I. Header, rule and
// summary lines are skipped; a row is "name | reg clk area | reg clk area
// [note] | reg clk area [note]".
func readReference(r io.Reader) (reference, error) {
	ref := reference{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		cols := strings.Split(sc.Text(), "|")
		if len(cols) != 1+len(tableFlows) {
			continue
		}
		name := strings.TrimSpace(cols[0])
		row := map[string]string{}
		for i, flow := range tableFlows {
			f := strings.Fields(cols[1+i])
			if len(f) < 3 {
				break
			}
			regs, err1 := strconv.Atoi(f[0])
			clk, err2 := strconv.ParseFloat(f[1], 64)
			area, err3 := strconv.ParseFloat(f[2], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				break
			}
			row[flow] = quality(regs, clk, area)
		}
		if len(row) == len(tableFlows) {
			ref[name] = row
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("no Table I rows found")
	}
	return ref, nil
}
