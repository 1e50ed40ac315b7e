package main

// Shared pieces of the workloads: the in-process output check and the
// traced pipeline that replays a quantification through the layers'
// public functions.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
	"privacymaxent/internal/metrics"
)

// pubCheck holds the benchmark's own counts of one published view and of
// the original table it came from.
type pubCheck struct {
	ref      *viewRef
	keyOfQID []int
	tr       *tableRef
	pubErr   error
}

// newPubCheck counts d and the table tbl it publishes.
func newPubCheck(tbl *dataset.Table, d *bucket.Bucketized) (*pubCheck, error) {
	ref, keyOfQID, err := viewRefFromBucketized(d)
	if err != nil {
		return nil, err
	}
	tr := newTableRef(tbl, ref)
	return &pubCheck{ref: ref, keyOfQID: keyOfQID, tr: tr, pubErr: checkPublication(tr, ref)}, nil
}

// check runs every in-process output check on one quantification and
// returns the joint's entropy.
func (pc *pubCheck) check(d *bucket.Bucketized, sol *maxent.Solution, post *dataset.Conditional, knowledge []constraint.DistributionKnowledge, wantK int, accuracy float64) (float64, error) {
	if pc.pubErr != nil {
		return 0, pc.pubErr
	}
	if d.NumBuckets() != len(pc.ref.buckets) || d.Universe().Len() != len(pc.keyOfQID) {
		return 0, fmt.Errorf("publication: the view has %d buckets and %d QI tuples, the checks counted %d and %d",
			d.NumBuckets(), d.Universe().Len(), len(pc.ref.buckets), len(pc.keyOfQID))
	}
	p := posteriorFromConditional(pc.ref, pc.keyOfQID, post)
	if err := checkRows(pc.ref, p); err != nil {
		return 0, err
	}
	joint := jointFromSolution(pc.keyOfQID, pc.ref, d, sol)
	if err := checkJoint(pc.ref, joint, p); err != nil {
		return 0, err
	}
	ks := knowRefsFromKnowledge(pc.ref, d.Schema(), knowledge)
	if err := checkKnowledge(pc.tr, pc.ref, ks, wantK); err != nil {
		return 0, err
	}
	if err := checkRules(pc.ref, p, ks); err != nil {
		return 0, err
	}
	if err := checkSAMarginal(pc.ref, p); err != nil {
		return 0, err
	}
	if len(ks) == 0 {
		if err := checkClosedForm(pc.ref, p); err != nil {
			return 0, err
		}
	}
	if err := checkAccuracy(pc.tr, pc.ref, p, accuracy); err != nil {
		return 0, err
	}
	return jointEntropy(joint), nil
}

// layerStats collects the per-layer figures of traced quantifications.
type layerStats struct {
	allocMB, rules, rows               []float64
	iterations, evaluations, usPerEval []float64
	fixed, dualDim, components         []float64
	largest                            *constraint.System
}

// tracedResult is what a traced quantification returns for checking.
type tracedResult struct {
	sol       *maxent.Solution
	post      *dataset.Conditional
	knowledge []constraint.DistributionKnowledge
	accuracy  float64
}

// tracedPublish replays publishing through the layers: Anatomy
// bucketization, rule mining and the true conditional.
func tracedPublish(tr *tracer, parent, op int, tbl *dataset.Table, sizes []int, ls *layerStats) (*bucket.Bucketized, []assoc.Rule, *dataset.Conditional, error) {
	var (
		d     *bucket.Bucketized
		rules []assoc.Rule
		truth *dataset.Conditional
		err   error
	)
	tr.span("bucket.anatomize", parent, op, func(int) {
		d, _, err = bucket.Anatomize(tbl, bucket.Options{L: 5, ExemptMostFrequent: true})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	tr.span("assoc.mine", parent, op, func(int) {
		rules, err = assoc.Mine(tbl, assoc.Options{MinSupport: 3, Sizes: sizes})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	ls.rules = append(ls.rules, float64(len(rules)))
	tr.span("dataset.truth", parent, op, func(int) {
		truth, err = dataset.TrueConditional(tbl, d.Universe())
	})
	return d, rules, truth, err
}

// tracedBase builds the term space and the invariant base system.
func tracedBase(tr *tracer, parent, op int, d *bucket.Bucketized) *constraint.System {
	var sp *constraint.Space
	tr.span("constraint.space", parent, op, func(int) { sp = constraint.NewSpace(d) })
	var sys *constraint.System
	tr.span("constraint.invariants", parent, op, func(int) {
		sys = constraint.DataInvariants(sp, constraint.InvariantOptions{DropRedundant: true})
	})
	return sys
}

// tracedSelect picks the Top-(kPos, kNeg) rules as knowledge statements.
func tracedSelect(tr *tracer, parent, op int, rules []assoc.Rule, kPos, kNeg int) []constraint.DistributionKnowledge {
	var knowledge []constraint.DistributionKnowledge
	tr.span("assoc.select", parent, op, func(int) {
		knowledge = topKnowledge(rules, core.Bound{KPos: kPos, KNeg: kNeg})
	})
	return knowledge
}

// tracedSolve appends knowledge to a clone of base, solves and scores —
// the tail of core's pipeline, one span per layer. truth may be nil (no
// accuracy score).
func tracedSolve(tr *tracer, parent, op int, base *constraint.System, knowledge []constraint.DistributionKnowledge, truth *dataset.Conditional, opts maxent.Options, ls *layerStats) (*tracedResult, error) {
	var sys *constraint.System
	var err error
	tr.span("constraint.knowledge", parent, op, func(int) {
		sys = base.Clone()
		err = constraint.AddKnowledge(sys, knowledge...)
	})
	if err != nil {
		return nil, err
	}
	ls.rows = append(ls.rows, float64(sys.Len()))
	if ls.largest == nil || sys.Len() > ls.largest.Len() {
		ls.largest = sys
	}
	opts.Decompose = true
	var sol *maxent.Solution
	solveTime := tr.span("maxent.solve", parent, op, func(int) {
		sol, err = maxent.SolveContext(context.Background(), sys, opts)
	})
	if err != nil {
		return nil, err
	}
	st := sol.Stats
	ls.iterations = append(ls.iterations, float64(st.Iterations))
	ls.evaluations = append(ls.evaluations, float64(st.Evaluations))
	if st.Evaluations > 0 {
		ls.usPerEval = append(ls.usPerEval, float64(solveTime.Microseconds())/float64(st.Evaluations))
	}
	ls.fixed = append(ls.fixed, float64(st.FixedVariables))
	ls.dualDim = append(ls.dualDim, float64(st.ReducedDualDim))
	ls.components = append(ls.components, float64(st.Components))
	res := &tracedResult{sol: sol, knowledge: knowledge}
	tr.span("metrics.score", parent, op, func(int) {
		res.post = sol.Posterior()
		_ = metrics.MaxDisclosure(res.post)
		_ = metrics.PosteriorEntropy(res.post)
		if truth != nil {
			res.accuracy, err = metrics.EstimationAccuracy(truth, res.post)
		}
	})
	return res, err
}

// allocMB reports the heap bytes allocated by fn, in MB.
func allocMB(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
}

// kernelMetrics times the solver's two public sparse kernels — the fused
// Aᵀλ → exp column pass (ExpDots) and the A·x row pass (MulVec) — on the
// assembled matrix of sys.
func kernelMetrics(sys *constraint.System, m map[string]metric) {
	a, _ := sys.Matrix()
	cols := a.Columns()
	lambda := make([]float64, a.Rows())
	for i := range lambda {
		lambda[i] = 0.01 * float64(i%7)
	}
	x := make([]float64, a.Cols())
	y := make([]float64, a.Rows())
	nnz := float64(a.NNZ())
	var sink float64
	expd := timePerRep(func() { sink += cols.ExpDots(lambda, x, 0, a.Cols()) })
	mulv := timePerRep(func() { a.MulVec(x, y) })
	_ = sink
	m["linalg.nnz"] = metric{nnz, "count"}
	m["linalg.expdots_ns_per_nnz"] = metric{float64(expd.Nanoseconds()) / nnz, "ns"}
	m["linalg.mulvec_ns_per_nnz"] = metric{float64(mulv.Nanoseconds()) / nnz, "ns"}
}

// timePerRep runs fn for at least 50 ms and returns the median of five
// batches' time per call.
func timePerRep(fn func()) time.Duration {
	reps := 1
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if time.Since(start) > 10*time.Millisecond {
			break
		}
		reps *= 2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(reps))
	}
	return time.Duration(median(per))
}

// pipelineLayerMetrics turns traced spans and layer stats into the
// pipeline's per-layer metrics.
func pipelineLayerMetrics(tr *tracer, ls *layerStats, m map[string]metric) {
	for _, l := range []string{"bucket.anatomize", "assoc.mine", "dataset.truth", "constraint.space",
		"constraint.invariants", "constraint.knowledge", "maxent.solve", "metrics.score"} {
		m[l+"_ms"] = metric{tr.layerMedian(l), "ms"}
	}
	m["core.alloc_mb"] = metric{median(ls.allocMB), "MB"}
	m["assoc.rules"] = metric{median(ls.rules), "count"}
	m["constraint.rows"] = metric{median(ls.rows), "count"}
	m["maxent.iterations"] = metric{median(ls.iterations), "count"}
	m["maxent.evaluations"] = metric{median(ls.evaluations), "count"}
	m["maxent.us_per_eval"] = metric{median(ls.usPerEval), "us"}
	m["maxent.fixed_variables"] = metric{median(ls.fixed), "count"}
	m["maxent.reduced_dual_dim"] = metric{median(ls.dualDim), "count"}
	m["maxent.components"] = metric{median(ls.components), "count"}
	if ls.largest != nil {
		kernelMetrics(ls.largest, m)
	}
}
