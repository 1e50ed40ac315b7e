package main

// Output checks computed apart from the program. Every check works on
// counts the benchmark takes itself from the published view (and, where
// the workload has it, from the original table), and on facts the
// Privacy-MaxEnt optimum must satisfy — never on the program's own
// earlier output.

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"privacymaxent/internal/bucket"
	"privacymaxent/internal/constraint"
	"privacymaxent/internal/dataset"
	"privacymaxent/internal/maxent"
)

// Check tolerances. A converged solve's residuals sit near 1e-9; the
// rule and marginal checks allow the same 1e-6 the failure rule uses.
const (
	tolResidual   = 1e-6
	tolClosedForm = 1e-9
	tolEntropy    = 1e-7
	// tolBatch bounds P(q)·|ΔP*(s|q)| between two converged answers to one
	// question: a difference in joint units, where converged solves agree
	// to about 1e-9.
	tolBatch = 1e-7
)

// viewRef is a published view as counted by the benchmark: distinct QI
// tuples (keys), their counts overall and per bucket, and SA counts
// overall and per bucket.
type viewRef struct {
	qiNames  []string
	saValues []string
	saIndex  map[string]int
	n        int
	keys     []string
	keyIndex map[string]int
	keyVals  [][]string
	qCount   []int
	sCount   []int
	buckets  []refBucket
}

type refBucket struct {
	size int
	q    map[int]int
	s    map[int]int
}

func qiKey(vals []string) string { return strings.Join(vals, "\x1f") }

// viewCounter accumulates a viewRef bucket by bucket.
type viewCounter struct {
	ref *viewRef
}

func newViewCounter(qiNames, saDomain []string) *viewCounter {
	ref := &viewRef{qiNames: qiNames, saValues: saDomain, saIndex: map[string]int{}, keyIndex: map[string]int{}}
	for i, v := range saDomain {
		ref.saIndex[v] = i
	}
	ref.sCount = make([]int, len(saDomain))
	return &viewCounter{ref: ref}
}

func (vb *viewCounter) addBucket(qiRows [][]string, saValues []string) error {
	ref := vb.ref
	if len(qiRows) != len(saValues) {
		return fmt.Errorf("bucket %d: %d QI rows but %d SA values", len(ref.buckets), len(qiRows), len(saValues))
	}
	rb := refBucket{size: len(qiRows), q: map[int]int{}, s: map[int]int{}}
	for _, row := range qiRows {
		k := qiKey(row)
		ki, ok := ref.keyIndex[k]
		if !ok {
			ki = len(ref.keys)
			ref.keyIndex[k] = ki
			ref.keys = append(ref.keys, k)
			ref.keyVals = append(ref.keyVals, append([]string(nil), row...))
			ref.qCount = append(ref.qCount, 0)
		}
		ref.qCount[ki]++
		rb.q[ki]++
	}
	for _, v := range saValues {
		si, ok := ref.saIndex[v]
		if !ok {
			return fmt.Errorf("SA value %q outside the domain", v)
		}
		ref.sCount[si]++
		rb.s[si]++
	}
	ref.n += rb.size
	ref.buckets = append(ref.buckets, rb)
	return nil
}

// viewRefFromJSON parses a published view in the wire format with the
// benchmark's own decoder.
func viewRefFromJSON(data []byte) (*viewRef, error) {
	var doc struct {
		QI []struct {
			Name string `json:"name"`
		} `json:"qi"`
		SA struct {
			Domain []string `json:"domain"`
		} `json:"sa"`
		Buckets []struct {
			QIRows   [][]string `json:"qi_rows"`
			SAValues []string   `json:"sa_values"`
		} `json:"buckets"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("published view: %w", err)
	}
	names := make([]string, len(doc.QI))
	for i, a := range doc.QI {
		names[i] = a.Name
	}
	vb := newViewCounter(names, doc.SA.Domain)
	for _, b := range doc.Buckets {
		if err := vb.addBucket(b.QIRows, b.SAValues); err != nil {
			return nil, err
		}
	}
	return vb.ref, nil
}

// viewRefFromBucketized counts an in-memory published view. Bucket
// indices match the view's, so joint terms map onto ref.buckets.
func viewRefFromBucketized(d *bucket.Bucketized) (*viewRef, []int, error) {
	schema := d.Schema()
	qiPos := schema.QIIndices()
	names := make([]string, len(qiPos))
	for i, p := range qiPos {
		names[i] = schema.Attr(p).Name
	}
	vb := newViewCounter(names, schema.SA().Domain)
	u := d.Universe()
	sa := schema.SA()
	for b := 0; b < d.NumBuckets(); b++ {
		bk := d.Bucket(b)
		rows := make([][]string, 0, bk.Size())
		for _, qid := range bk.QIDs() {
			rows = append(rows, qidValues(d, qid))
		}
		var sas []string
		for s := 0; s < sa.Cardinality(); s++ {
			for c := 0; c < bk.SACount(s); c++ {
				sas = append(sas, sa.Value(s))
			}
		}
		if err := vb.addBucket(rows, sas); err != nil {
			return nil, nil, err
		}
	}
	// keyOfQID maps the view's qids onto ref key indices.
	keyOfQID := make([]int, u.Len())
	for qid := range keyOfQID {
		ki, ok := vb.ref.keyIndex[qiKey(qidValues(d, qid))]
		if !ok {
			return nil, nil, fmt.Errorf("qid %d appears in no bucket", qid)
		}
		keyOfQID[qid] = ki
	}
	return vb.ref, keyOfQID, nil
}

func qidValues(d *bucket.Bucketized, qid int) []string {
	schema := d.Schema()
	codes := d.Universe().Codes(qid)
	vals := make([]string, len(codes))
	for i, p := range schema.QIIndices() {
		vals[i] = schema.Attr(p).Value(codes[i])
	}
	return vals
}

// tableRef holds counts of the original table, indexed by the QI tuples
// of a view of it: per tuple its record count and its SA counts
// (joint[ki·|SA|+s]), the SA counts overall, and how many records carry a
// QI tuple the view does not have.
type tableRef struct {
	n, unpublished int
	qCount, sCount []int
	joint          []int
}

func newTableRef(t *dataset.Table, ref *viewRef) *tableRef {
	schema := t.Schema()
	ns := len(ref.saValues)
	tr := &tableRef{n: t.Len(), qCount: make([]int, len(ref.keys)), sCount: make([]int, ns), joint: make([]int, len(ref.keys)*ns)}
	vals := make([]string, len(schema.QIIndices()))
	for r := 0; r < t.Len(); r++ {
		for i, p := range schema.QIIndices() {
			vals[i] = t.Value(r, p)
		}
		s := ref.saIndex[t.Value(r, schema.SAIndex())]
		tr.sCount[s]++
		ki, ok := ref.keyIndex[qiKey(vals)]
		if !ok {
			tr.unpublished++
			continue
		}
		tr.qCount[ki]++
		tr.joint[ki*ns+s]++
	}
	return tr
}

// knowRef is a knowledge statement P(sa | cond) = p (cond negated when
// not), with cond keyed by position in viewRef.qiNames.
type knowRef struct {
	cond map[int]string
	not  bool
	sa   int
	p    float64
}

func (k knowRef) matches(vals []string) bool {
	all := true
	for pos, v := range k.cond {
		if vals[pos] != v {
			all = false
			break
		}
	}
	return all != k.not
}

// knowRefsFromJSON parses knowledge statements in the wire format with the
// benchmark's own decoder.
func knowRefsFromJSON(ref *viewRef, data []byte) ([]knowRef, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var docs []struct {
		If   map[string]string `json:"if"`
		Not  bool              `json:"not"`
		Then string            `json:"then"`
		P    float64           `json:"p"`
	}
	if err := json.Unmarshal(data, &docs); err != nil {
		return nil, err
	}
	pos := map[string]int{}
	for i, n := range ref.qiNames {
		pos[n] = i
	}
	out := make([]knowRef, 0, len(docs))
	for _, d := range docs {
		k := knowRef{cond: map[int]string{}, not: d.Not, p: d.P}
		for name, v := range d.If {
			i, ok := pos[name]
			if !ok {
				return nil, fmt.Errorf("knowledge on unknown attribute %q", name)
			}
			k.cond[i] = v
		}
		si, ok := ref.saIndex[d.Then]
		if !ok {
			return nil, fmt.Errorf("knowledge on unknown SA value %q", d.Then)
		}
		k.sa = si
		out = append(out, k)
	}
	return out, nil
}

// knowRefsFromKnowledge converts in-memory statements (attribute
// positions and codes of the view's schema) into knowRefs.
func knowRefsFromKnowledge(ref *viewRef, schema *dataset.Schema, ks []constraint.DistributionKnowledge) []knowRef {
	pos := map[string]int{}
	for i, n := range ref.qiNames {
		pos[n] = i
	}
	out := make([]knowRef, len(ks))
	for i, k := range ks {
		kr := knowRef{cond: map[int]string{}, not: k.Negated, p: k.P, sa: ref.saIndex[schema.SA().Value(k.SA)]}
		for j, a := range k.Attrs {
			attr := schema.Attr(a)
			kr.cond[pos[attr.Name]] = attr.Value(k.Values[j])
		}
		out[i] = kr
	}
	return out
}

// posterior is P*(s|q) laid out by ref key index × ref SA index.
type posterior struct {
	ns   int
	rows []float64
	seen []bool
}

func newPosterior(ref *viewRef) *posterior {
	return &posterior{ns: len(ref.saValues), rows: make([]float64, len(ref.keys)*len(ref.saValues)), seen: make([]bool, len(ref.keys))}
}

func (p *posterior) row(ki int) []float64 { return p.rows[ki*p.ns : (ki+1)*p.ns] }

// posteriorFromConditional lays out an in-memory posterior.
func posteriorFromConditional(ref *viewRef, keyOfQID []int, c *dataset.Conditional) *posterior {
	p := newPosterior(ref)
	for qid, ki := range keyOfQID {
		copy(p.row(ki), c.Row(qid))
		p.seen[ki] = true
	}
	return p
}

// wireRow is one posterior row of a pmaxentd response.
type wireRow struct {
	QI map[string]string  `json:"qi"`
	P  map[string]float64 `json:"p"`
}

// posteriorFromWire lays out a response's posterior rows.
func posteriorFromWire(ref *viewRef, rows []wireRow) (*posterior, error) {
	p := newPosterior(ref)
	vals := make([]string, len(ref.qiNames))
	for _, r := range rows {
		for i, n := range ref.qiNames {
			vals[i] = r.QI[n]
		}
		ki, ok := ref.keyIndex[qiKey(vals)]
		if !ok {
			return nil, fmt.Errorf("posterior row for a QI tuple outside the view: %v", r.QI)
		}
		if p.seen[ki] {
			return nil, fmt.Errorf("two posterior rows for %v", r.QI)
		}
		p.seen[ki] = true
		row := p.row(ki)
		for s, v := range r.P {
			si, ok := ref.saIndex[s]
			if !ok {
				return nil, fmt.Errorf("posterior entry for unknown SA value %q", s)
			}
			row[si] = v
		}
	}
	return p, nil
}

// checkRows: one row per QI tuple of the view, entries in [0,1], each row
// summing to 1.
func checkRows(ref *viewRef, p *posterior) error {
	for ki := range ref.keys {
		if !p.seen[ki] {
			return fmt.Errorf("rows: no posterior row for QI tuple %q", ref.keys[ki])
		}
		var s float64
		for si, v := range p.row(ki) {
			if math.IsNaN(v) || v < -1e-12 || v > 1+1e-9 {
				return fmt.Errorf("rows: P*(%s|%s) = %g outside [0,1]", ref.saValues[si], ref.keys[ki], v)
			}
			s += v
		}
		if math.Abs(s-1) > tolResidual {
			return fmt.Errorf("rows: posterior row %q sums to %.9f", ref.keys[ki], s)
		}
	}
	return nil
}

// checkSAMarginal: Σ_q P(q)·P*(s|q) = c(s)/N, with P(q) counted from the
// view — the Theorem 2 invariants summed over buckets.
func checkSAMarginal(ref *viewRef, p *posterior) error {
	got := make([]float64, len(ref.saValues))
	for ki, c := range ref.qCount {
		pq := float64(c) / float64(ref.n)
		for si, v := range p.row(ki) {
			got[si] += pq * v
		}
	}
	for si, g := range got {
		want := float64(ref.sCount[si]) / float64(ref.n)
		if math.Abs(g-want) > tolResidual {
			return fmt.Errorf("sa-marginal: P(%s) = %.9f, view counts give %.9f", ref.saValues[si], g, want)
		}
	}
	return nil
}

// checkRules: every applied statement holds, P(s|Q) = p, with P(q)
// counted from the published view.
func checkRules(ref *viewRef, p *posterior, ks []knowRef) error {
	for i, k := range ks {
		var pQ, psQ float64
		for ki, vals := range ref.keyVals {
			if !k.matches(vals) {
				continue
			}
			pq := float64(ref.qCount[ki]) / float64(ref.n)
			pQ += pq
			psQ += pq * p.row(ki)[k.sa]
		}
		if pQ == 0 {
			return fmt.Errorf("rule %d: condition matches no QI tuple of the view", i)
		}
		if r := psQ - k.p*pQ; math.Abs(r) > tolResidual {
			return fmt.Errorf("rule %d: P(%s|Q) = %.9f, stated %.9f (residual %.3g)", i, ref.saValues[k.sa], psQ/pQ, k.p, r)
		}
	}
	return nil
}

// closedForm is the Theorem 5 posterior with no knowledge: within each
// bucket QI and SA are independent, P(q,s,b) = c(q,b)·c(s,b)/(N·|b|).
func closedForm(ref *viewRef) *posterior {
	p := newPosterior(ref)
	for _, b := range ref.buckets {
		for ki, cq := range b.q {
			row := p.row(ki)
			for si, cs := range b.s {
				row[si] += float64(cq) * float64(cs) / float64(b.size)
			}
		}
	}
	for ki, c := range ref.qCount {
		row := p.row(ki)
		for si := range row {
			row[si] /= float64(c)
		}
		p.seen[ki] = true
	}
	return p
}

// checkClosedForm: with no knowledge the posterior equals Theorem 5's.
func checkClosedForm(ref *viewRef, p *posterior) error {
	return comparePosteriors("closed-form", ref, closedForm(ref), p, tolClosedForm)
}

func comparePosteriors(what string, ref *viewRef, want, got *posterior, tol float64) error {
	for ki := range ref.keys {
		w, g := want.row(ki), got.row(ki)
		for si := range w {
			if math.Abs(w[si]-g[si]) > tol {
				return fmt.Errorf("%s: P*(%s|%s) = %.12f, expected %.12f", what, ref.saValues[si], ref.keys[ki], g[si], w[si])
			}
		}
	}
	return nil
}

// compareWeighted compares two posteriors entry by entry in joint units,
// weighting each QI tuple's row by its view share P(q).
func compareWeighted(what string, ref *viewRef, want, got *posterior, tol float64) error {
	for ki := range ref.keys {
		pq := float64(ref.qCount[ki]) / float64(ref.n)
		w, g := want.row(ki), got.row(ki)
		for si := range w {
			if d := pq * math.Abs(w[si]-g[si]); d > tol {
				return fmt.Errorf("%s: P*(%s|%s) = %.12f, expected %.12f (P(q)-weighted difference %.3g)", what, ref.saValues[si], ref.keys[ki], g[si], w[si], d)
			}
		}
	}
	return nil
}

// jointEntry is one P(q,s,b) of a solved joint, in ref indices.
type jointEntry struct {
	key, sa, bucket int
	x               float64
}

func jointFromSolution(keyOfQID []int, ref *viewRef, d *bucket.Bucketized, sol *maxent.Solution) []jointEntry {
	sp := sol.Space()
	sa := d.Schema().SA()
	out := make([]jointEntry, sp.Len())
	for i := range out {
		t := sp.Term(i)
		out[i] = jointEntry{key: keyOfQID[t.QID], sa: ref.saIndex[sa.Value(t.SA)], bucket: t.Bucket, x: sol.X[i]}
	}
	return out
}

// checkJoint: the invariant marginals of the returned joint,
// Σ_s P(q,s,b) = c(q,b)/N and Σ_q P(q,s,b) = c(s,b)/N, and the posterior
// equal to the joint's conditional.
func checkJoint(ref *viewRef, joint []jointEntry, p *posterior) error {
	type qb struct{ k, b int }
	qSum := map[qb]float64{}
	sSum := map[qb]float64{}
	rowSum := make([]float64, len(ref.keys))
	cond := make([]float64, len(p.rows))
	for _, e := range joint {
		if e.x < 0 {
			return fmt.Errorf("joint: negative P(q,s,b) = %g", e.x)
		}
		qSum[qb{e.key, e.bucket}] += e.x
		sSum[qb{e.sa, e.bucket}] += e.x
		rowSum[e.key] += e.x
		cond[e.key*p.ns+e.sa] += e.x
	}
	n := float64(ref.n)
	for b, rb := range ref.buckets {
		for ki, c := range rb.q {
			if got := qSum[qb{ki, b}]; math.Abs(got-float64(c)/n) > tolResidual {
				return fmt.Errorf("joint: Σ_s P(%s,s,b%d) = %.9f, view counts give %.9f", ref.keys[ki], b, got, float64(c)/n)
			}
		}
		for si, c := range rb.s {
			if got := sSum[qb{si, b}]; math.Abs(got-float64(c)/n) > tolResidual {
				return fmt.Errorf("joint: Σ_q P(q,%s,b%d) = %.9f, view counts give %.9f", ref.saValues[si], b, got, float64(c)/n)
			}
		}
	}
	for k, x := range qSum {
		if _, ok := ref.buckets[k.b].q[k.k]; !ok && x > tolResidual {
			return fmt.Errorf("joint: mass %.9f on QI tuple %q outside bucket %d", x, ref.keys[k.k], k.b)
		}
	}
	for k, x := range sSum {
		if _, ok := ref.buckets[k.b].s[k.k]; !ok && x > tolResidual {
			return fmt.Errorf("joint: mass %.9f on SA value %q outside bucket %d", x, ref.saValues[k.k], k.b)
		}
	}
	for ki := range ref.keys {
		for si := 0; si < p.ns; si++ {
			want := cond[ki*p.ns+si] / rowSum[ki]
			if got := p.row(ki)[si]; math.Abs(got-want) > tolClosedForm {
				return fmt.Errorf("joint: posterior P*(%s|%s) = %.12f but the joint gives %.12f", ref.saValues[si], ref.keys[ki], got, want)
			}
		}
	}
	return nil
}

// jointEntropy is −Σ x ln x over the joint.
func jointEntropy(joint []jointEntry) float64 {
	var h float64
	for _, e := range joint {
		if e.x > 0 {
			h -= e.x * math.Log(e.x)
		}
	}
	return h
}

// checkPublication: the view's QI and SA counts add up to the original
// table's.
func checkPublication(tr *tableRef, ref *viewRef) error {
	if ref.n != tr.n {
		return fmt.Errorf("publication: %d records published, table has %d", ref.n, tr.n)
	}
	if tr.unpublished > 0 {
		return fmt.Errorf("publication: %d records of the table have a QI tuple the view lacks", tr.unpublished)
	}
	for ki, k := range ref.keys {
		if tr.qCount[ki] != ref.qCount[ki] {
			return fmt.Errorf("publication: QI tuple %q published %d times, table has %d", k, ref.qCount[ki], tr.qCount[ki])
		}
	}
	for si, c := range tr.sCount {
		if c != ref.sCount[si] {
			return fmt.Errorf("publication: SA value %q published %d times, table has %d", ref.saValues[si], ref.sCount[si], c)
		}
	}
	return nil
}

// checkAccuracy: the reported Estimation Accuracy equals the weighted KL
// distance Σ_q P(q) Σ_s p(s|q) log2(p(s|q)/P*(s|q)), recomputed from counts
// of the original table (estimates floored at 1e-9, as the paper's
// measure does).
func checkAccuracy(tr *tableRef, ref *viewRef, p *posterior, reported float64) error {
	var want float64
	ns := len(ref.saValues)
	for ki := range ref.keys {
		counts := tr.joint[ki*ns : (ki+1)*ns]
		nq := float64(tr.qCount[ki])
		var kl float64
		for si, c := range counts {
			if c == 0 {
				continue
			}
			pt := float64(c) / nq
			pe := math.Max(p.row(ki)[si], 1e-9)
			kl += pt * math.Log2(pt/pe)
		}
		want += nq / float64(tr.n) * kl
	}
	if math.Abs(want-reported) > 1e-9*(1+math.Abs(want)) {
		return fmt.Errorf("accuracy: reported %.12f, recomputed %.12f", reported, want)
	}
	return nil
}

// checkKnowledge: the applied statements are exactly want in number and
// each states the true P(s|Qv) of the original table.
func checkKnowledge(tr *tableRef, ref *viewRef, ks []knowRef, want int) error {
	if len(ks) != want {
		return fmt.Errorf("knowledge: %d statements applied, bound asks for %d", len(ks), want)
	}
	ns := len(ref.saValues)
	for i, k := range ks {
		var nQ, nsQ int
		for ki, vals := range ref.keyVals {
			if k.matches(vals) {
				nQ += tr.qCount[ki]
				nsQ += tr.joint[ki*ns+k.sa]
			}
		}
		if nQ == 0 || math.Abs(float64(nsQ)/float64(nQ)-k.p) > 1e-12 {
			return fmt.Errorf("knowledge %d: states p=%.6f, table gives %d/%d", i, k.p, nsQ, nQ)
		}
	}
	return nil
}

// checkEntropyChain: along a nested knowledge curve the MaxEnt joint's
// entropy cannot grow. hs holds the entropies in K order, NaN for points
// left out (failed solves); it returns the index of the first point that
// breaks the chain, or -1.
func checkEntropyChain(hs []float64) (int, error) {
	prev := math.NaN()
	for i, h := range hs {
		if math.IsNaN(h) {
			continue
		}
		if !math.IsNaN(prev) && h > prev+tolEntropy {
			return i, fmt.Errorf("entropy: joint entropy rose from %.9f to %.9f as knowledge grew", prev, h)
		}
		prev = h
	}
	return -1, nil
}
