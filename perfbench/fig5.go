package main

// fig5-sweep: the paper's Figure 5 protocol on the 2000-record reference
// instance — one Prepare, then the K−, K+ and (K+, K−) curves, each curve
// warm-chained, with the experiments' solver settings.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"privacymaxent"
	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/solver"
)

type bucketized = bucket.Bucketized

// fig5Ks is the K grid of every curve (the experiments' default grid cut
// at 400).
var fig5Ks = []int{0, 5, 10, 25, 50, 100, 200, 400}

// fig5Curves names the curves; fig5Bound gives a curve's bound at K.
var fig5Curves = []string{"K-", "K+", "(K+,K-)"}

func fig5Bound(curve, k int) core.Bound {
	switch curve {
	case 0:
		return core.Bound{KNeg: k}
	case 1:
		return core.Bound{KPos: k}
	}
	return core.Bound{KPos: k / 2, KNeg: k - k/2}
}

// fig5Solver is the experiments' accuracy-solve setting.
var fig5Solver = solver.Options{MaxIterations: 6000, GradTol: 1e-8}

// fig5SweepSeconds is about how long one sweep takes on 2 cores. A run
// makes seconds/fig5SweepSeconds sweeps (at least one): a count set by
// -seconds alone, so every run takes its sweep quantiles over the same
// number of sweeps, however fast the host is at the time.
const fig5SweepSeconds = 12

// fig5Instance is the reference instance of BenchmarkFigure5: 2000
// synthetic Adult records, seed 1, rules over one or two QI attributes.
type fig5Instance struct {
	tbl   *dataset.Table
	d     *bucketized
	truth *dataset.Conditional
	rules []assoc.Rule
	prep  *privacymaxent.Prepared
}

func fig5Setup() (*fig5Instance, error) {
	in := &fig5Instance{tbl: adult.Generate(adult.Config{Records: 2000, Seed: 1})}
	var err error
	if in.d, _, err = bucket.Anatomize(in.tbl, bucket.Options{L: 5, ExemptMostFrequent: true}); err != nil {
		return nil, err
	}
	if in.truth, err = privacymaxent.TrueConditional(in.tbl, in.d.Universe()); err != nil {
		return nil, err
	}
	if in.rules, err = privacymaxent.MineRules(in.tbl, privacymaxent.MineOptions{MinSupport: 3, Sizes: []int{1, 2}}); err != nil {
		return nil, err
	}
	q := privacymaxent.New(privacymaxent.Config{Solve: privacymaxent.SolveOptions{Solver: fig5Solver}})
	in.prep, err = q.Prepare(context.Background(), in.d)
	return in, err
}

// sweepPoint is one solve of a sweep, classified after its curve ends.
type sweepPoint struct {
	what      string
	err       error
	converged bool
	viol      float64
	checkErr  error
	entropy   float64
}

func runFig5(cfg config) (*outcome, error) {
	var setup, setupWall []float64
	var in *fig5Instance
	for r := 0; r < setupRepeats; r++ {
		// Each set-up starts from a collected heap that holds nothing of
		// the one before.
		in = nil
		runtime.GC()
		c0, start := selfCPU(), time.Now()
		var err error
		if in, err = fig5Setup(); err != nil {
			return nil, err
		}
		setup = append(setup, (selfCPU() - c0).Seconds())
		setupWall = append(setupWall, time.Since(start).Seconds())
	}
	pc, err := newPubCheck(in.tbl, in.d)
	if err != nil {
		return nil, err
	}
	// The seed only orders the curves; the instance is fixed.
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(fig5Curves))

	t := newTally()
	var tr *tracer
	ls := &layerStats{}
	var tracedPC *pubCheck
	var tracedBaseSys *constraint.System
	var tracedD *bucketized
	var tracedTruth *dataset.Conditional
	var tracedRules []assoc.Rule
	if cfg.trace {
		tr = newTracer()
		tr.span("fig5.setup", 0, 0, func(root int) {
			tracedD, tracedRules, tracedTruth, err = tracedPublish(tr, root, 0, in.tbl, []int{1, 2}, ls)
			if err == nil {
				tracedBaseSys = tracedBase(tr, root, 0, tracedD)
			}
		})
		if err != nil {
			return nil, err
		}
		if tracedPC, err = newPubCheck(in.tbl, tracedD); err != nil {
			return nil, err
		}
	}

	var solveMS, sweepS, tracedSweepS []float64
	var sweepCPU time.Duration
	op := 0
	rounds := max(1, cfg.seconds/fig5SweepSeconds)
	if cfg.trace {
		// One untraced and one traced sweep.
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		traced := cfg.trace && round%2 == 1
		var sweep float64
		for _, ci := range order {
			var warm []maxent.ConstraintDual
			points := make([]sweepPoint, len(fig5Ks))
			for ki, k := range fig5Ks {
				op++
				b := fig5Bound(ci, k)
				pt := &points[ki]
				pt.entropy = math.NaN()
				pt.what = fmt.Sprintf("%s K=%d", fig5Curves[ci], k)
				var sol *maxent.Solution
				t0 := time.Now()
				if !traced {
					c0 := selfCPU()
					rep, err := in.prep.QuantifyWithRules(context.Background(), in.rules, b, in.truth, warm)
					dt := ms(time.Since(t0))
					sweepCPU += selfCPU() - c0
					solveMS = append(solveMS, dt)
					sweep += dt
					if pt.err = err; err == nil {
						sol = rep.Solution
						pt.converged, pt.viol = sol.Stats.Converged, sol.Stats.MaxViolation
						if pt.converged && pt.viol <= maxViolationLimit {
							pt.entropy, pt.checkErr = pc.check(in.d, sol, rep.Posterior, rep.Knowledge, b.KPos+b.KNeg, rep.EstimationAccuracy)
						}
					}
				} else {
					var res *tracedResult
					ls.allocMB = append(ls.allocMB, allocMB(func() {
						tr.span("fig5.point", 0, op, func(root int) {
							know := tracedSelect(tr, root, op, tracedRules, b.KPos, b.KNeg)
							res, pt.err = tracedSolve(tr, root, op, tracedBaseSys, know, tracedTruth,
								maxent.Options{Solver: fig5Solver, WarmStart: warm}, ls)
						})
					}))
					sweep += ms(time.Since(t0))
					if pt.err == nil {
						sol = res.sol
						pt.converged, pt.viol = sol.Stats.Converged, sol.Stats.MaxViolation
						if pt.converged && pt.viol <= maxViolationLimit {
							pt.entropy, pt.checkErr = tracedPC.check(tracedD, sol, res.post, res.knowledge, b.KPos+b.KNeg, res.accuracy)
						}
					}
				}
				// Chain duals only from converged solves, as Figure5 does.
				if sol != nil && sol.Stats.Converged {
					warm = sol.Duals
				} else {
					warm = nil
				}
			}
			hs := make([]float64, len(points))
			for i, p := range points {
				hs[i] = p.entropy
			}
			if i, err := checkEntropyChain(hs); i >= 0 && points[i].checkErr == nil {
				points[i].checkErr = err
			}
			for _, p := range points {
				t.record(p.what, p.err, p.converged, p.viol, func() error { return p.checkErr })
			}
		}
		if traced {
			tracedSweepS = append(tracedSweepS, sweep/1000)
		} else {
			sweepS = append(sweepS, sweep/1000)
		}
	}
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	out := &outcome{tally: t, tracer: tr, report: map[string]metric{
		"sweep_s":      {median(sweepS), "s"},
		"sweeps":       {float64(len(sweepS)), "count"},
		"setup_wall_s": {median(setupWall), "s"},
		"solve_ms":     {median(solveMS), "ms"},
	}}
	if !cfg.trace {
		// The sweep is the operation here: the median point is one small
		// solve whose time goroutine scheduling sets.
		out.metrics = endToEnd(setup, ms(sweepCPU)/float64(len(sweepS)), rss)
		return out, nil
	}
	m := map[string]metric{}
	pipelineLayerMetrics(tr, ls, m)
	m["trace.overhead_pct"] = metric{100 * (median(tracedSweepS)/median(sweepS) - 1), "%"}
	m["trace.spans"] = metric{float64(len(tr.spans)), "count"}
	pub, err := newServePub("fig5", in.d, in.rules, servePubOptions{bound: core.Bound{KPos: 2, KNeg: 2}})
	if err != nil {
		return nil, err
	}
	if err := probeServe(cfg, tr, []*servePub{pub}, m); err != nil {
		return nil, err
	}
	out.metrics = m
	return out, nil
}
