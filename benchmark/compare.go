package main

import (
	"errors"
	"fmt"
	"io"
	"math"
)

// verdict labels B against A for one end-to-end metric: "unresolved" when
// either side's spread exceeds the bound, else "regressed" or "improved"
// when the medians differ by more than the bound, else "unchanged".
func verdict(d metricDef, a, b summary) string {
	worse := (b.Median - a.Median) / a.Median
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case math.Max(a.spread(), b.spread()) > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	case worse < -d.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareMain prints, per workload and end-to-end metric, both sets'
// medians and quartiles, the delta and a verdict; then each side's
// failure fraction and whether the exact counts agree. It fails unless
// every metric is unchanged or improved, neither set failed a rep, and
// the counts are identical.
func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: benchmark compare A.json B.json")
	}
	a, err := readReport(args[0])
	if err != nil {
		return err
	}
	b, err := readReport(args[1])
	if err != nil {
		return err
	}
	bad := 0
	for _, name := range unionKeys(a.Workloads, nil) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(out, "%s: only in %s\n", name, args[0])
			bad++
			continue
		}
		fmt.Fprintf(out, "%s\n  %-12s %-4s %28s %28s %8s  %s\n", name, "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v := verdict(d, ma.summary, mb.summary)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			fmt.Fprintf(out, "  %-12s %-4s %9.4g [%8.4g, %8.4g] %9.4g [%8.4g, %8.4g] %+7.1f%%  %s (bound %.0f%%)\n",
				d.Name, d.Unit, ma.Median, ma.Q1, ma.Q3, mb.Median, mb.Q1, mb.Q3,
				100*(mb.Median-ma.Median)/ma.Median, v, 100*d.Bound)
		}
		fmt.Fprintf(out, "  %-12s %-4s %9.4g %30.4g\n", "fail_frac", "", wa.FailFrac, wb.FailFrac)
		if wa.FailFrac > 0 || wb.FailFrac > 0 {
			bad++
		}
		bad += compareCounts(out, wa.Counts, wb.Counts)
	}
	if bad > 0 {
		return fmt.Errorf("compare: %d metric(s) regressed, unresolved, failing or unequal", bad)
	}
	fmt.Fprintln(out, "compare: every metric unchanged or improved, no failures, exact counts equal")
	return nil
}

// compareCounts prints whether the exact counts agree and returns how
// many differ.
func compareCounts(out io.Writer, a, b map[string]uint64) int {
	if a == nil || b == nil {
		fmt.Fprintln(out, "  exact counts: not recorded by both sets (run with -trace 1)")
		return 0
	}
	keys := unionKeys(a, b)
	diff := 0
	for _, k := range keys {
		if a[k] != b[k] {
			fmt.Fprintf(out, "  exact count %s differs: %d vs %d\n", k, a[k], b[k])
			diff++
		}
	}
	if diff == 0 {
		fmt.Fprintf(out, "  exact counts: all %d equal\n", len(keys))
	}
	return diff
}
