package main

// paper-run: repeated Quantifier.Run on paper-scale tables — the
// publisher's end-to-end path (bucketize, mine, truth, select, formulate,
// solve, score).

import (
	"fmt"
	"runtime"
	"time"

	"privacymaxent"
	"privacymaxent/internal/adult"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
)

const (
	// paperRecords is the paper's Adult table size (2,842 buckets of 5).
	paperRecords = 14210
	// paperTables is how many generator seeds one run's tables come from.
	paperTables = 3
)

// paperBounds is the Top-(K+, K−) cycle every table is run under: small
// bounds that converge within the pipeline's default 500-iteration
// solver budget. (0,0) exercises the Theorem 5 closed form.
var paperBounds = []core.Bound{{KPos: 0, KNeg: 0}, {KPos: 1, KNeg: 1}, {KPos: 2, KNeg: 2}, {KPos: 4, KNeg: 0}, {KPos: 0, KNeg: 4}}

// paperSizes restricts mining to rules over one or two QI attributes, as
// the Figure 5 instance does; mining all eight sizes makes a Run take
// seconds of mining alone.
var paperSizes = []int{1, 2}

// paperTablesFor generates the run's tables; table i of seed s comes from
// generator seed s·paperTables + i + 1.
func paperTablesFor(seed int64) []*dataset.Table {
	out := make([]*dataset.Table, paperTables)
	for i := range out {
		out[i] = adult.Generate(adult.Config{Records: paperRecords, Seed: seed*paperTables + int64(i) + 1})
	}
	return out
}

func runPaper(cfg config) (*outcome, error) {
	var setup, setupWall []float64
	var tables []*dataset.Table
	for r := 0; r < setupRepeats; r++ {
		// Each set-up starts from a collected heap that holds nothing of
		// the one before.
		tables = nil
		runtime.GC()
		c0, start := selfCPU(), time.Now()
		tables = paperTablesFor(cfg.seed)
		setup = append(setup, (selfCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
	}

	// The checks' own counts of each table and of its view, built once:
	// Run publishes a table deterministically, so every Run's view is the
	// one counted here (pubCheck.check compares their shapes).
	checks := make([]*pubCheck, len(tables))
	for ti, tbl := range tables {
		d, _, err := bucket.Anatomize(tbl, bucket.Options{L: 5, ExemptMostFrequent: true})
		if err != nil {
			return nil, err
		}
		if checks[ti], err = newPubCheck(tbl, d); err != nil {
			return nil, err
		}
	}
	q := privacymaxent.New(privacymaxent.Config{RuleSizes: paperSizes})
	t := newTally()
	checkOne := func(ti int, d *bucketized, sol *maxent.Solution, post *dataset.Conditional, know []privacymaxent.DistributionKnowledge, b core.Bound, acc float64) error {
		_, err := checks[ti].check(d, sol, post, know, b.KPos+b.KNeg, acc)
		return err
	}

	var tr *tracer
	ls := &layerStats{}
	if cfg.trace {
		tr = newTracer()
	}
	var runMS, tracedMS []float64
	var runCPU time.Duration
	var pubs []*servePub
	if cfg.trace {
		// Warm the heap so the first untraced Runs do not pay its growth
		// and skew the tracing-overhead comparison.
		if _, err := q.Run(tables[0], paperBounds[0]); err != nil {
			return nil, err
		}
	}
	op := 0
	start := time.Now()
	rounds := 1
	if cfg.trace {
		rounds = 2
	}
	for round := 0; round < rounds || timeLeft(start, cfg.seconds); round++ {
		traced := cfg.trace && round%2 == 1
		for ti, tbl := range tables {
			for _, b := range paperBounds {
				op++
				what := fmt.Sprintf("table %d Top-(%d,%d)", ti, b.KPos, b.KNeg)
				if !traced {
					c0, t0 := selfCPU(), time.Now()
					rep, err := q.Run(tbl, b)
					runMS = append(runMS, ms(time.Since(t0)))
					runCPU += selfCPU() - c0
					if err != nil {
						t.record(what, err, false, 0, nil)
						continue
					}
					st := rep.Solution.Stats
					t.record(what, nil, st.Converged, st.MaxViolation, func() error {
						return checkOne(ti, rep.Solution.Space().Data(), rep.Solution, rep.Posterior, rep.Knowledge, b, rep.EstimationAccuracy)
					})
					continue
				}
				var res *tracedResult
				var d *bucketized
				var rules []privacymaxent.Rule
				var err error
				t0 := time.Now()
				ls.allocMB = append(ls.allocMB, allocMB(func() {
					tr.span("paper.run", 0, op, func(root int) {
						var truth *dataset.Conditional
						d, rules, truth, err = tracedPublish(tr, root, op, tbl, paperSizes, ls)
						if err != nil {
							return
						}
						base := tracedBase(tr, root, op, d)
						know := tracedSelect(tr, root, op, rules, b.KPos, b.KNeg)
						res, err = tracedSolve(tr, root, op, base, know, truth, maxent.Options{}, ls)
					})
				}))
				tracedMS = append(tracedMS, ms(time.Since(t0)))
				if err == nil && round == 1 && b == paperBounds[2] {
					// The serve probe's views: the first table's is hot.
					var pub *servePub
					if pub, err = newServePub(fmt.Sprintf("paper-%d", ti), d, rules, servePubOptions{bound: b, cold: ti > 0}); err == nil {
						pubs = append(pubs, pub)
					}
				}
				if err != nil {
					t.record(what, err, false, 0, nil)
					continue
				}
				st := res.sol.Stats
				t.record(what, nil, st.Converged, st.MaxViolation, func() error {
					return checkOne(ti, d, res.sol, res.post, res.knowledge, b, res.accuracy)
				})
			}
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	out := &outcome{tally: t, tracer: tr, report: map[string]metric{
		"run_s":        {median(runMS) / 1000, "s"},
		"wall_p90_ms":  {quantile(runMS, 0.9), "ms"},
		"runs":         {float64(len(runMS)), "count"},
		"setup_wall_s": {median(setupWall), "s"},
	}}
	if !cfg.trace {
		out.metrics = endToEnd(setup, ms(runCPU)/float64(len(runMS)), rss)
		return out, nil
	}
	m := map[string]metric{}
	pipelineLayerMetrics(tr, ls, m)
	m["trace.overhead_pct"] = metric{100 * (median(tracedMS)/median(runMS) - 1), "%"}
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	if err := probeServe(cfg, tr, pubs, m); err != nil {
		return nil, err
	}
	out.metrics = m
	return out, nil
}
