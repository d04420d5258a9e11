package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of -compare for one (workload, end-to-end metric) pair.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// spread is the distance between the first and third quartiles of xs as
// a share of their median, with quartiles computed exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method);
// for three rounds that is the range over the median.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// verdict judges b against baseline a: a change past the bound is an
// improvement or a regression, unless either side's rounds disagree by
// more than the bound, which leaves it unresolved.
func verdict(m metricSpec, a, b metricOut) (string, float64) {
	change := ratio(b.Value-a.Value, a.Value)
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case spread(a.Rounds) > m.Bound || spread(b.Rounds) > m.Bound:
		return unresolved, change
	case worse > m.Bound:
		return regressed, change
	case worse < -m.Bound:
		return improved, change
	}
	return unchanged, change
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// comparable refuses a pair of reports measured on different hosts
// sizes or with different inputs.
func comparable(a, b *report) error {
	if a.Header.NProc != b.Header.NProc {
		return fmt.Errorf("nproc differs: %d vs %d", a.Header.NProc, b.Header.NProc)
	}
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			if wa.ScheduleDigest != wb.ScheduleDigest {
				return fmt.Errorf("%s schedule digest differs: %s vs %s", wa.Name, wa.ScheduleDigest, wb.ScheduleDigest)
			}
			if wa.BodyDigest != wb.BodyDigest {
				return fmt.Errorf("%s body digest differs: %s vs %s", wa.Name, wa.BodyDigest, wb.BodyDigest)
			}
		}
	}
	return nil
}

// compareReports writes one line per (workload, end-to-end metric) the
// two reports share and returns how many pairs regressed.
func compareReports(w io.Writer, spec *benchSpec, a, b *report) int {
	regressions := 0
	fmt.Fprintf(w, "%-8s %-22s %12s %12s %8s  %s\n", "workload", "metric", "A", "B", "change", "verdict")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, m := range spec.EndToEnd {
				ma, okA := wa.Metrics[m.Name]
				mb, okB := wb.Metrics[m.Name]
				if !okA || !okB {
					continue
				}
				v, change := verdict(m, ma, mb)
				if v == regressed {
					regressions++
				}
				fmt.Fprintf(w, "%-8s %-22s %12.5g %12.5g %+7.1f%%  %s\n", wa.Name, m.Name, ma.Value, mb.Value, change*100, v)
			}
		}
	}
	return regressions
}

// runCompare implements -compare [-force] A.json B.json. Exit status: 0
// when nothing regressed, 1 when something did, 2 when refused.
func runCompare(spec *benchSpec, args []string, force bool) int {
	var paths []string
	for _, a := range args {
		if a == "-force" || a == "--force" {
			force = true
			continue
		}
		paths = append(paths, a)
	}
	if len(paths) != 2 {
		return fail(fmt.Errorf("-compare wants two report files, got %d", len(paths)))
	}
	a, err := readReport(paths[0])
	if err != nil {
		return fail(err)
	}
	b, err := readReport(paths[1])
	if err != nil {
		return fail(err)
	}
	if err := comparable(a, b); err != nil && !force {
		return fail(fmt.Errorf("refusing to compare (-force overrides): %w", err))
	}
	if compareReports(os.Stdout, spec, a, b) > 0 {
		return 1
	}
	return 0
}
