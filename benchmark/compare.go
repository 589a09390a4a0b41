package main

// -compare reads two sets of -json reports, a baseline and a change,
// and judges every (metric, workload) pair by the rule of the
// choosing-metrics guide: a timing regresses when the change's median
// is worse than the baseline's by more than the metric's bound; when
// the baseline's own spread (interquartile range over median) is wider
// than the bound, the pair is unresolved unless every run of the
// change reads better than every run of the baseline. Deterministic
// metrics (bound 0) must repeat exactly.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func runCompare(w io.Writer, args []string) error {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		return fmt.Errorf("usage: -compare A.json... -- B.json...")
	}
	a, err := loadReports(args[:split])
	if err != nil {
		return err
	}
	b, err := loadReports(args[split+1:])
	if err != nil {
		return err
	}
	rows := compareSamples(a, b)
	fmt.Fprintf(w, "%-16s %-30s %12s %12s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "A q1", "A median", "A q3", "B median", "delta", "bound", "verdict")
	regressed := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-30s %12.6g %12.6g %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
			r.workload, r.metric, r.aq1, r.amed, r.aq3, r.bmed, 100*r.delta, 100*r.bound, r.verdict)
		if r.verdict == "regressed" {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

// samples maps workload, then metric, to one value per report.
type samples map[string]map[string][]point

// point is one report's value and the seed it ran with.
type point struct {
	seed  int64
	value float64
}

func values(ps []point) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.value
	}
	return out
}

func loadReports(paths []string) (samples, error) {
	out := samples{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		for wname, res := range rep.Workloads {
			if out[wname] == nil {
				out[wname] = map[string][]point{}
			}
			for m, v := range res.Metrics {
				out[wname][m] = append(out[wname][m], point{rep.Seed, v.Value})
			}
		}
	}
	return out, nil
}

type compareRow struct {
	workload, metric string
	aq1, amed, aq3   float64
	bmed             float64
	delta, bound     float64 // delta > 0 means worse
	verdict          string
}

func compareSamples(a, b samples) []compareRow {
	var rows []compareRow
	for wname, am := range a {
		for mname, ap := range am {
			bp := b[wname][mname]
			av, bv := values(ap), values(bp)
			def, ok := metricByName(mname)
			if !ok || len(bv) == 0 {
				continue
			}
			r := compareRow{workload: wname, metric: mname, bound: def.Bound}
			r.aq1, r.amed, r.aq3 = quartiles(av)
			r.bmed = median(bv)
			if r.amed != 0 {
				r.delta = (r.bmed - r.amed) / r.amed
			}
			if def.Better == "higher" {
				r.delta = -r.delta
			}
			r.verdict = verdict(def, ap, bp, r)
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	return rows
}

func verdict(def metricDef, ap, bp []point, r compareRow) string {
	if def.Bound == 0 {
		// Deterministic in code and seed: equal on every seed both
		// sides ran.
		seen := map[int64]float64{}
		for _, p := range ap {
			seen[p.seed] = p.value
		}
		for _, p := range bp {
			if v, ok := seen[p.seed]; ok && v != p.value {
				return "changed"
			}
		}
		return "ok"
	}
	av, bv := values(ap), values(bp)
	spread := 0.0
	if r.amed != 0 {
		spread = (r.aq3 - r.aq1) / r.amed
	}
	if spread > def.Bound && !allBetter(def, av, bv) {
		return "unresolved"
	}
	if r.delta > def.Bound {
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every change run reads better than every
// baseline run.
func allBetter(def metricDef, av, bv []float64) bool {
	for _, x := range av {
		for _, y := range bv {
			if (def.Better == "higher" && y <= x) || (def.Better == "lower" && y >= x) {
				return false
			}
		}
	}
	return true
}
