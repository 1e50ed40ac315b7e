package main

// Each output check must pass on the program's real output and fail on a
// corrupted copy of it: a perturbed posterior row, a dropped rule, a
// wrong bucket count, a wrong accuracy, a broken entropy chain and a
// batch answer that differs from the single one.

import (
	"context"
	"math"
	"testing"

	"privacymaxent/internal/adult"
	"privacymaxent/internal/assoc"
	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/core"
	"privacymaxent/internal/dataset"
)

type fixture struct {
	tbl   *dataset.Table
	d     *bucket.Bucketized
	rules []assoc.Rule
	prep  *core.Prepared
	truth *dataset.Conditional
	rep   *core.Report // Top-(2,2)
	rep0  *core.Report // no knowledge
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{tbl: adult.Generate(adult.Config{Records: 400, Seed: 3})}
	var err error
	if f.d, _, err = bucket.Anatomize(f.tbl, bucket.Options{L: 5, ExemptMostFrequent: true}); err != nil {
		t.Fatal(err)
	}
	if f.truth, err = dataset.TrueConditional(f.tbl, f.d.Universe()); err != nil {
		t.Fatal(err)
	}
	if f.rules, err = assoc.Mine(f.tbl, assoc.Options{MinSupport: 3, Sizes: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if f.prep, err = core.New(core.Config{}).Prepare(context.Background(), f.d); err != nil {
		t.Fatal(err)
	}
	if f.rep, err = f.prep.QuantifyWithRules(context.Background(), f.rules, core.Bound{KPos: 2, KNeg: 2}, f.truth, nil); err != nil {
		t.Fatal(err)
	}
	if f.rep0, err = f.prep.QuantifyWithRules(context.Background(), f.rules, core.Bound{}, f.truth, nil); err != nil {
		t.Fatal(err)
	}
	if !f.rep.Solution.Stats.Converged {
		t.Fatalf("fixture solve did not converge: %v", f.rep.Solution.Stats)
	}
	return f
}

func (f *fixture) pubCheck(t *testing.T) *pubCheck {
	t.Helper()
	pc, err := newPubCheck(f.tbl, f.d)
	if err != nil {
		t.Fatal(err)
	}
	return pc
}

func (f *fixture) check(pc *pubCheck, rep *core.Report, post *dataset.Conditional, wantK int, acc float64) error {
	_, err := pc.check(f.d, rep.Solution, post, rep.Knowledge, wantK, acc)
	return err
}

// perturbRow moves mass between two entries of the posterior row of the
// first QI tuple with two non-zero entries; the row still sums to 1.
func perturbRow(t *testing.T, c *dataset.Conditional) *dataset.Conditional {
	t.Helper()
	u := c.Universe()
	out := dataset.NewConditional(u, c.NumSA())
	for qid := 0; qid < u.Len(); qid++ {
		copy(out.Row(qid), c.Row(qid))
	}
	for qid := 0; qid < u.Len(); qid++ {
		row := out.Row(qid)
		var nz []int
		for s, p := range row {
			if p > 0.05 {
				nz = append(nz, s)
			}
		}
		if len(nz) >= 2 {
			row[nz[0]] += 0.03
			row[nz[1]] -= 0.03
			return out
		}
	}
	t.Fatal("no row to perturb")
	return nil
}

func TestChecksPassOnRealOutput(t *testing.T) {
	f := newFixture(t)
	pc := f.pubCheck(t)
	if err := f.check(pc, f.rep, f.rep.Posterior, 4, f.rep.EstimationAccuracy); err != nil {
		t.Fatalf("Top-(2,2): %v", err)
	}
	if err := f.check(pc, f.rep0, f.rep0.Posterior, 0, f.rep0.EstimationAccuracy); err != nil {
		t.Fatalf("no knowledge: %v", err)
	}
}

func TestPerturbedPosteriorRowFails(t *testing.T) {
	f := newFixture(t)
	pc := f.pubCheck(t)
	bad := perturbRow(t, f.rep.Posterior)
	if err := f.check(pc, f.rep, bad, 4, f.rep.EstimationAccuracy); err == nil {
		t.Fatal("perturbed row passed the in-process checks")
	}
	// Without the joint (the daemon's answers), the SA marginal catches it.
	p := posteriorFromConditional(pc.ref, pc.keyOfQID, bad)
	if err := checkSAMarginal(pc.ref, p); err == nil {
		t.Fatal("perturbed row passed the SA-marginal check")
	}
	// A row that no longer sums to one fails the row check.
	row := p.row(0)
	row[0] += 0.5
	if err := checkRows(pc.ref, p); err == nil {
		t.Fatal("row summing to 1.5 passed the row check")
	}
	bad0 := perturbRow(t, f.rep0.Posterior)
	if err := checkClosedForm(pc.ref, posteriorFromConditional(pc.ref, pc.keyOfQID, bad0)); err == nil {
		t.Fatal("perturbed no-knowledge posterior passed the closed-form check")
	}
}

// dropRule solves the Top-(2,2) knowledge without its i-th statement.
func (f *fixture) dropRule(t *testing.T, i int) *core.Report {
	t.Helper()
	ks := append(append([]constraint.DistributionKnowledge(nil), f.rep.Knowledge[:i]...), f.rep.Knowledge[i+1:]...)
	rep, err := f.prep.QuantifyWithOptions(context.Background(), core.QuantifyOptions{Knowledge: ks, Truth: f.truth})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestDroppedRuleFails(t *testing.T) {
	f := newFixture(t)
	pc := f.pubCheck(t)
	dropped := f.dropRule(t, 0)
	// The report admits three statements where the bound asks for four.
	if err := f.check(pc, dropped, dropped.Posterior, 4, dropped.EstimationAccuracy); err == nil {
		t.Fatal("report with a dropped rule passed the knowledge check")
	}
	// Held to the full list, a posterior solved without a rule breaks it
	// (a rule the invariants already imply survives being dropped, so at
	// least one of the four must be caught).
	ks := knowRefsFromKnowledge(pc.ref, f.d.Schema(), f.rep.Knowledge)
	caught := 0
	for i := range f.rep.Knowledge {
		p := posteriorFromConditional(pc.ref, pc.keyOfQID, f.dropRule(t, i).Posterior)
		if checkRules(pc.ref, p, ks) != nil {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("no posterior solved without a rule failed the rule check")
	}
}

func TestWrongBucketCountFails(t *testing.T) {
	f := newFixture(t)
	pc := f.pubCheck(t)
	b := pc.ref.buckets[0]
	for ki := range b.q {
		b.q[ki]++
		break
	}
	if err := f.check(pc, f.rep, f.rep.Posterior, 4, f.rep.EstimationAccuracy); err == nil {
		t.Fatal("wrong bucket count passed the marginal checks")
	}
}

func TestWrongAccuracyFails(t *testing.T) {
	f := newFixture(t)
	pc := f.pubCheck(t)
	if err := f.check(pc, f.rep, f.rep.Posterior, 4, f.rep.EstimationAccuracy*(1+1e-6)); err == nil {
		t.Fatal("wrong Estimation Accuracy passed the accuracy check")
	}
}

func TestEntropyChain(t *testing.T) {
	if i, err := checkEntropyChain([]float64{3, 2.9, math.NaN(), 2.8}); i >= 0 {
		t.Fatalf("falling chain rejected: %v", err)
	}
	if i, _ := checkEntropyChain([]float64{3, 2.9, math.NaN(), 2.95}); i != 3 {
		t.Fatalf("rising chain: got index %d, want 3", i)
	}
}

// TestWireAnswers runs the daemon-side checks on an answer rendered the
// way pmaxentd renders it, then on corrupted answers.
func TestWireAnswers(t *testing.T) {
	f := newFixture(t)
	pub, err := newServePub("fixture", f.d, f.rules, servePubOptions{bound: core.Bound{KPos: 2, KNeg: 2}})
	if err != nil {
		t.Fatal(err)
	}
	answer := func(rep *core.Report) *wireResp {
		resp := wireResponse(f.d.Schema(), &tracedResult{sol: rep.Solution, post: rep.Posterior, knowledge: rep.Knowledge})
		r := &wireResp{KnowledgeApplied: resp.KnowledgeApplied}
		for _, row := range resp.Posterior {
			r.Posterior = append(r.Posterior, wireRow{QI: row.QI, P: row.P})
		}
		return r
	}
	good, err := checkAnswer(pub, pub.know, answer(f.rep))
	if err != nil {
		t.Fatalf("real answer: %v", err)
	}
	if _, err := checkAnswer(pub, nil, answer(f.rep0)); err != nil {
		t.Fatalf("real no-knowledge answer: %v", err)
	}
	caught := 0
	var dropped *core.Report
	for i := range f.rep.Knowledge {
		dropped = f.dropRule(t, i)
		r := answer(dropped)
		r.KnowledgeApplied = 4
		if _, err := checkAnswer(pub, pub.know, r); err != nil {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("every answer solved without a rule passed")
	}
	r := answer(f.rep)
	r.KnowledgeApplied = 3
	if _, err := checkAnswer(pub, pub.know, r); err == nil {
		t.Fatal("answer admitting three of four statements passed")
	}
	r = answer(f.rep)
	r.Posterior[0].P[f.d.Schema().SA().Value(0)] += 0.2
	if _, err := checkAnswer(pub, pub.know, r); err == nil {
		t.Fatal("answer with a perturbed row passed")
	}
	r = answer(f.rep)
	r.Posterior = r.Posterior[1:]
	if _, err := checkAnswer(pub, pub.know, r); err == nil {
		t.Fatal("answer missing a row passed")
	}
	other, err := posteriorFromWire(pub.ref, answer(dropped).Posterior)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareWeighted("batch-vs-single", pub.ref, good, other, tolBatch); err == nil {
		t.Fatal("batch answer for other knowledge matched the single answer")
	}
	if err := compareWeighted("batch-vs-single", pub.ref, good, good, tolBatch); err != nil {
		t.Fatalf("identical answers differ: %v", err)
	}
}
