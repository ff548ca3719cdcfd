package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CSV renders rows as RFC-4180-ish comma-separated values with a header,
// for spreadsheet import or plotting.
func CSV(rows []Row) string {
	var b strings.Builder
	b.WriteString("experiment,benchmark,platform,mode,size,class,kernels,unroll,seq,par,unit,speedup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%s,%s,%d,%d,%g,%g,%s,%.4f\n",
			csvEscape(r.Experiment), csvEscape(r.Benchmark), csvEscape(r.Platform),
			csvEscape(r.Mode), csvEscape(r.Size), r.Class, r.Kernels, r.Unroll,
			r.Seq, r.Par, csvEscape(r.Unit), r.Speedup)
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Chart renders rows as the paper's figures do — speedup bars grouped by
// benchmark, one bar per (kernels, size) point — in plain text:
//
//	TRAPEZ
//	   2 small   ██████ 2.0
//	  27 large   ████████████████████████████ 26.9
//
// Bars are scaled to the largest speedup in the row set.
func Chart(rows []Row) string {
	if len(rows) == 0 {
		return "(no rows)\n"
	}
	const width = 40
	maxSp := 0.0
	for _, r := range rows {
		if r.Speedup > maxSp {
			maxSp = r.Speedup
		}
	}
	if maxSp <= 0 {
		maxSp = 1
	}
	// Group by benchmark, preserving first-appearance order.
	var order []string
	byBench := map[string][]Row{}
	for _, r := range rows {
		if _, ok := byBench[r.Benchmark]; !ok {
			order = append(order, r.Benchmark)
		}
		byBench[r.Benchmark] = append(byBench[r.Benchmark], r)
	}
	var b strings.Builder
	for _, name := range order {
		group := byBench[name]
		sort.SliceStable(group, func(i, j int) bool {
			if group[i].Class != group[j].Class {
				return group[i].Class < group[j].Class
			}
			return group[i].Kernels < group[j].Kernels
		})
		fmt.Fprintf(&b, "%s (%s)\n", name, group[0].Platform)
		for _, r := range group {
			n := int(r.Speedup / maxSp * width)
			if n < 1 && r.Speedup > 0 {
				n = 1
			}
			fmt.Fprintf(&b, "  %2dk %-9s %s %.2f\n", r.Kernels, r.Size, strings.Repeat("█", n), r.Speedup)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "scale: full bar = %.1fx speedup\n", maxSp)
	return b.String()
}

// WriteJSON renders rows as an indented JSON array, the machine-readable
// form tfluxbench -json emits so perf trajectories can be tracked across
// commits by tooling instead of prose.
func WriteJSON(w io.Writer, rows []Row) error {
	type jsonRow struct {
		Row
		Class string `json:"class"`
	}
	out := make([]jsonRow, len(rows))
	for i, r := range rows {
		out[i] = jsonRow{Row: r, Class: r.Class.String()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
