// Command perfbench is the repository's benchmark: three workloads
// (paper-run, fig5-sweep, serve-mix) measured end to end with tracing
// off, and per layer in a separate traced run. See README.md for the
// workloads, the metrics and how they relate.
//
// Usage (from the repository root, normally through perfbench/run.sh,
// which builds this program and pmaxentd first):
//
//	perfbench -workload paper-run -seed 1 -seconds 24 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones, with -trace 1 the per-layer ones. The lines before
// it are a human-readable report: every metric by name and unit, and the
// attempted/failed counts by reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Failure reasons an operation is counted under.
const (
	reasonError       = "error"
	reasonUnconverged = "unconverged"
	reasonCheck       = "check"
)

// tally counts the operations of one run and why any of them failed.
type tally struct {
	attempted int
	failed    map[string]int
	// examples keeps the first few failure messages per reason.
	examples map[string][]string
}

func newTally() *tally {
	return &tally{failed: map[string]int{}, examples: map[string][]string{}}
}

// ok records an operation that succeeded.
func (t *tally) ok() { t.attempted++ }

// fail records an operation that failed for reason.
func (t *tally) fail(reason, detail string) {
	t.attempted++
	t.failed[reason]++
	if len(t.examples[reason]) < 3 {
		t.examples[reason] = append(t.examples[reason], detail)
	}
}

// record classifies one operation (named by what) from its error, its
// convergence and its output check, in that order.
func (t *tally) record(what string, err error, converged bool, maxViolation float64, check func() error) {
	switch {
	case err != nil:
		t.fail(reasonError, what+": "+err.Error())
	case !converged || maxViolation > maxViolationLimit:
		t.fail(reasonUnconverged, fmt.Sprintf("%s: converged=%v max_violation=%.3g", what, converged, maxViolation))
	default:
		if cerr := check(); cerr != nil {
			t.fail(reasonCheck, what+": "+cerr.Error())
			return
		}
		t.ok()
	}
}

func (t *tally) totalFailed() int {
	n := 0
	for _, c := range t.failed {
		n += c
	}
	return n
}

// maxViolationLimit is the largest constraint residual a solve may report
// and still count as converged.
const maxViolationLimit = 1e-6

// outcome is what a workload run hands back to main.
type outcome struct {
	tally *tally
	// metrics holds the metrics of the result line (end-to-end or
	// per-layer, depending on the mode).
	metrics map[string]metric
	// report holds further named figures printed in the report only.
	report map[string]metric
	// tracer holds the spans of a traced run (nil otherwise).
	tracer *tracer
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	pmaxentd string
	out      string
	nproc    int
}

var workloads = map[string]func(config) (*outcome, error){
	"paper-run":  runPaper,
	"fig5-sweep": runFig5,
	"serve-mix":  runServe,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-run, fig5-sweep or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&cfg.pmaxentd, "pmaxentd", ".bench_build/bin/pmaxentd", "pmaxentd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory for result and span files")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.nproc = runtime.NumCPU()
	runtime.GOMAXPROCS(cfg.nproc)

	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds\n", cfg.workload)
		os.Exit(2)
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the report and the result line and writes the result (and
// in traced runs the span file) under cfg.out.
func emit(cfg config, out *outcome) error {
	t := out.tally
	res := result{
		Correct:   t.failed[reasonCheck] == 0,
		Attempted: t.attempted,
		Failed:    t.totalFailed(),
		Metrics:   out.metrics,
	}
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer"
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%d nproc=%d (%s)\n", cfg.workload, cfg.seed, cfg.seconds, cfg.nproc, mode)
	fmt.Printf("# operations: attempted=%d failed=%d", t.attempted, res.Failed)
	for _, r := range []string{reasonError, reasonUnconverged, reasonCheck} {
		fmt.Printf(" %s=%d", r, t.failed[r])
	}
	fmt.Println()
	for _, r := range []string{reasonError, reasonUnconverged, reasonCheck} {
		for _, ex := range t.examples[r] {
			fmt.Printf("#   %s: %s\n", r, ex)
		}
	}
	printMetrics("metric", out.metrics)
	printMetrics("report", out.report)

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	traceDigit := 0
	if cfg.trace {
		traceDigit = 1
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, traceDigit))
	if out.tracer != nil {
		if err := out.tracer.write(base + ".spans.jsonl"); err != nil {
			return err
		}
		self := out.tracer.selfTimeByName()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("# self-time %-28s total %10.3f ms over %d spans\n", n, self[n].total, self[n].count)
		}
	}
	full := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"nproc": cfg.nproc, "result": res, "report": out.report,
		"failed_by_reason": t.failed, "failure_examples": t.examples,
	}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(tag string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %s %-34s %14.6g %s\n", tag, n, ms[n].Value, ms[n].Unit)
	}
}

// timeLeft reports whether a run that started at start still has budget.
func timeLeft(start time.Time, seconds int) bool {
	return time.Since(start) < time.Duration(seconds)*time.Second
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB reads VmHWM (peak resident set) of a process in MB.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// endToEnd assembles the end-to-end metric set every workload reports.
// Both times are CPU time (user + system) of the program, not wall time:
// on a shared virtual machine the wall clock also counts the time the host
// gives the CPU to others, which moved medians of the same code by 24–72%
// between runs, while CPU time leaves that out. Wall-clock figures are
// report lines (README.md, "Why CPU time, not wall time").
func endToEnd(setupCPU []float64, cpuMSPerOp, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {median(setupCPU), "s"},
		"cpu_ms_per_op": {cpuMSPerOp, "ms"},
		"rss_mb":        {rssMB, "MB"},
	}
}

// selfCPU is the CPU time (user + system) this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the CPU time (user + system) process pid has used, read from
// /proc/<pid>/stat in clock ticks of 10 ms.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the line.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// setupRepeats is how many times the in-process workloads repeat their
// set-up in a run (serve-mix, whose set-up starts a daemon, repeats it
// serveSetupRepeats times); setup_s is the median of their CPU times.
const setupRepeats = 15
