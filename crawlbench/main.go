// Command crawlbench is the end-to-end crawl benchmark. It crawls one
// named workload through core.Run, seals each finished crawl into a
// bundle, regenerates the report from the bundle, checks every output
// against ground truth, and prints the end-to-end metrics (or, with
// -trace 1, per-layer metrics from a profiled crawl).
//
// Each crawl runs in a fresh child process of this binary, so peak RSS
// and set-up time are per crawl; the orchestrator repeats crawls until
// the measuring time is spent and reports medians. See README.md.
//
//	bash crawlbench/run.sh --workload chaos --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minCrawls is the fewest untraced crawls a run measures, however
	// short its time budget; a traced run needs one traced round.
	minCrawls = 3
	// childTimeout bounds one child process; the crawl inside it is
	// cancelled at the same limit.
	childTimeout = 150 * time.Second
	// workRoot holds per-run scratch state inside the checkout.
	workRoot = ".bench_build"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "crawl" {
		os.Exit(runCrawl(os.Args[2:]))
	}
	os.Exit(runBench(os.Args[1:]))
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the untraced run's metrics, in print order. The gated
// ones go into the result line. visit_p99_ms and report_s are printed
// only: on the machine the benchmark was tuned on, the p99 tracked the
// host's load and the file-copy bound bundle seal drifted, both beyond
// any allowed bound (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"sites_per_s", "sites/s"}, {"visit_p50_ms", "ms"},
	{"visit_p99_ms", "ms"}, {"report_s", "s"}, {"peak_rss_mb", "MB"},
}

var ungated = map[string]bool{"visit_p99_ms": true, "report_s": true}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runBench(args []string) int {
	fs := flag.NewFlagSet("crawlbench", flag.ContinueOnError)
	name := fs.String("workload", "live", "workload: live, chaos or offline")
	seed := fs.Int64("seed", 1, "population seed")
	seconds := fs.Int("seconds", 20, "measuring time")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics from profiled crawls")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	root := filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	defer settle(root)
	// Start from a quiet file system: writeback left by the build or an
	// earlier run would otherwise land inside the first crawl.
	syscall.Sync()
	o := &orchestrator{self: self, w: w, seed: *seed, root: root}
	if *trace == 1 {
		return o.traced(time.Duration(*seconds) * time.Second)
	}
	return o.untraced(time.Duration(*seconds) * time.Second)
}

// orchestrator spawns and collects the crawl processes of one run.
type orchestrator struct {
	self string
	w    workload
	seed int64
	root string
	n    int // crawls spawned so far

	// fillS is the wall time of the live crawl that filled the offline
	// archive, printed but not part of setup_s: it is a whole live crawl,
	// whose file-write-bound time drifts as live's does.
	fillS float64

	attempted, failed int
	problems          []string
	digests           map[string]bool
}

// spawn runs one crawl process and returns its result.
func (o *orchestrator) spawn(trace, fill bool) (*crawlResult, float64, error) {
	o.n++
	dir := filepath.Join(o.root, fmt.Sprintf("crawl-%d", o.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	// Each live or chaos crawl writes a fresh archive; the offline fill
	// writes the run's one archive and every offline crawl replays it.
	archive := filepath.Join(dir, "archive")
	if o.w.offline {
		archive = filepath.Join(o.root, "archive")
	}
	args := []string{"crawl", "-workload", o.w.name, "-seed", strconv.FormatInt(o.seed, 10), "-dir", dir, "-archive", archive}
	switch {
	case fill:
		args = append(args, "-fill")
	case o.w.offline:
		args = append(args, "-offline")
	}
	if trace {
		spans := filepath.Join(workRoot, fmt.Sprintf("spans-%s-seed%d.json", o.w.name, o.seed))
		args = append(args, "-trace", "-spans", spans)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout+10*time.Second)
	defer cancel()
	var out bytes.Buffer
	steal0 := stealSeconds()
	start := time.Now()
	cmd := exec.CommandContext(ctx, o.self, append(args, "-spawn-ns", strconv.FormatInt(start.UnixNano(), 10))...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	// The crawl process must not outlive the orchestrator.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	steal := ratio(stealSeconds()-steal0, wall*float64(runtime.NumCPU()))
	if err != nil {
		return nil, wall, fmt.Errorf("crawl process: %w", err)
	}
	var res crawlResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, wall, fmt.Errorf("crawl process output: %w", err)
	}
	p50, _ := percentile(res.SingleMs, 0.5)
	fmt.Fprintf(os.Stderr, "crawl %d (%s): %.1f s wall, setup %.4f s, %.1f sites/s, p50 %.3f ms, report %.3f s, peak RSS %.1f MB, CPU steal %.1f%%\n",
		o.n, o.kind(trace, fill), wall, res.SetupS, res.SitesPerS, p50, res.ReportS, res.PeakRSSMB, 100*steal)
	o.attempted += res.Records
	o.failed += res.Mismatches + res.Panics
	for _, p := range res.Problems {
		o.problems = append(o.problems, fmt.Sprintf("crawl %d: %s", o.n, p))
	}
	if o.digests == nil {
		o.digests = map[string]bool{}
	}
	o.digests[res.ReportDigest] = true
	return &res, wall, nil
}

// settle removes the run's files and flushes the file system. Crawl
// directories are kept until then: deleting thousands of archive files
// between crawls slowed the following crawls' file writes severalfold
// on the machine the benchmark was tuned on.
func settle(dir string) {
	os.RemoveAll(dir)
	syscall.Sync()
}

// stealSeconds reads the CPU time the hypervisor took from this
// machine's CPUs, summed over CPUs; 0 where /proc/stat is unavailable.
// Progress lines show its share over each crawl process, because on a
// shared virtual machine it explains much of the crawl-to-crawl noise.
func stealSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// kind names a crawl process for progress lines.
func (o *orchestrator) kind(trace, fill bool) string {
	switch {
	case fill:
		return "archive fill"
	case trace:
		return "traced"
	}
	return "untraced"
}

// fillArchive runs the offline workload's set-up crawl: a live crawl
// of the same population that writes the archive every offline crawl
// of this run replays.
func (o *orchestrator) fillArchive() error {
	if !o.w.offline {
		return nil
	}
	_, wall, err := o.spawn(false, true)
	if err != nil {
		return err
	}
	o.fillS = wall
	return nil
}

// crawls spawns crawl rounds until the measuring time is spent (and at
// least minCrawls ran). A round is one crawl, or an untraced and a
// traced crawl of the same seed in a traced run.
func (o *orchestrator) crawls(budget time.Duration, traced bool) (plain, prof []*crawlResult, err error) {
	// A warm-up crawl absorbs what the previous run or the build left
	// behind (file-system writeback, cold page cache); its outputs are
	// checked like every crawl's, but its timings are not reported.
	if _, _, err := o.spawn(false, false); err != nil {
		return nil, nil, err
	}
	least := minCrawls
	if traced {
		least = 1
	}
	start := time.Now()
	for len(plain) < least || time.Since(start) < budget {
		// Stop early rather than overrun the budget by a whole round.
		if len(plain) >= least && time.Since(start)+time.Since(start)/time.Duration(len(plain)) > budget+budget/10 {
			break
		}
		res, _, err := o.spawn(false, false)
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, res)
		if traced {
			res, _, err := o.spawn(true, false)
			if err != nil {
				return nil, nil, err
			}
			prof = append(prof, res)
		}
	}
	return plain, prof, nil
}

// checks adds the cross-crawl output check: every crawl of one seed
// renders the same report. On offline, the live crawl that filled the
// archive is one of them, so replay must render the live report.
func (o *orchestrator) checks() {
	if len(o.digests) > 1 {
		o.problems = append(o.problems, fmt.Sprintf("crawls of one seed rendered %d different reports", len(o.digests)))
	}
}

func (o *orchestrator) untraced(budget time.Duration) int {
	if err := o.fillArchive(); err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	plain, _, err := o.crawls(budget, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	o.checks()
	col := func(f func(*crawlResult) float64) float64 {
		xs := make([]float64, len(plain))
		for i, r := range plain {
			xs[i] = f(r)
		}
		return median(xs)
	}
	vals := map[string]float64{
		"setup_s":     col(func(r *crawlResult) float64 { return r.SetupS }),
		"sites_per_s": col(func(r *crawlResult) float64 { return r.SitesPerS }),
		"report_s":    col(func(r *crawlResult) float64 { return r.ReportS }),
		"peak_rss_mb": col(func(r *crawlResult) float64 { return r.PeakRSSMB }),
	}
	// visit_p50_ms is, like the other gated metrics, a median over
	// crawls (of each crawl's median visit), so a few crawls the host
	// disturbs do not move it. visit_p99_ms pools every measured crawl's
	// visits: a per-crawl p99 rests on barely ten samples beyond it.
	var single, p50s []float64
	for _, r := range plain {
		single = append(single, r.SingleMs...)
		v, err := percentile(r.SingleMs, 0.5)
		if err != nil {
			o.problems = append(o.problems, "visit_p50_ms: "+err.Error())
		}
		p50s = append(p50s, v)
	}
	vals["visit_p50_ms"] = median(p50s)
	v, err := percentile(single, 0.99)
	if err != nil {
		o.problems = append(o.problems, "visit_p99_ms: "+err.Error())
	}
	vals["visit_p99_ms"] = v
	fmt.Printf("crawlbench: workload %s, seed %d, %d sites per crawl, %d crawls (medians over crawls; p99 over all their visits)\n",
		o.w.name, o.seed, o.w.sites, len(plain))
	if o.w.offline {
		fmt.Printf("  %-13s %12.4f %-8s live crawl that filled the archive once per run (not gated)\n", "fill_s", o.fillS, "s")
	}
	n := len(single)
	notes := map[string]string{
		"visit_p50_ms": fmt.Sprintf("median of per-crawl medians over %d single-attempt visits", n),
		"visit_p99_ms": fmt.Sprintf("over %d single-attempt visits, %d beyond p99; not gated", n, n-int(math.Ceil(0.99*float64(n)))),
		"sites_per_s":  fmt.Sprintf("%d sites per crawl", o.w.sites),
		"report_s":     "not gated",
	}
	metrics := map[string]metric{}
	for _, m := range endToEnd {
		if !ungated[m.name] {
			metrics[m.name] = metric{vals[m.name], m.unit}
		}
		fmt.Printf("  %-13s %12.4f %-8s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
	}
	o.printErrors()
	return o.finish(metrics)
}

func (o *orchestrator) traced(budget time.Duration) int {
	if err := o.fillArchive(); err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	plain, prof, err := o.crawls(budget, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	o.checks()
	layers := map[string][]float64{}
	var absent []string
	for i, r := range prof {
		for k, v := range r.Layers {
			layers[k] = append(layers[k], v)
		}
		absent = r.Absent
		layers["trace.untraced_sites_per_s"] = append(layers["trace.untraced_sites_per_s"], plain[i].SitesPerS)
		layers["trace.traced_sites_per_s"] = append(layers["trace.traced_sites_per_s"], r.SitesPerS)
		layers["trace.overhead_frac"] = append(layers["trace.overhead_frac"], 1-ratio(r.SitesPerS, plain[i].SitesPerS))
	}
	fmt.Printf("crawlbench: workload %s, seed %d, %d sites per crawl, %d traced + %d untraced crawls (medians over traced crawls)\n",
		o.w.name, o.seed, o.w.sites, len(prof), len(plain))
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	metrics := map[string]metric{}
	for _, k := range names {
		v := median(layers[k])
		u := unitOf(k)
		metrics[k] = metric{v, u}
		fmt.Printf("  %-32s %14.4f %s\n", k, v, u)
	}
	fmt.Printf("  tracing overhead: %.1f sites/s traced vs %.1f untraced; median paired overhead %.1f%%\n",
		metrics["trace.traced_sites_per_s"].Value, metrics["trace.untraced_sites_per_s"].Value,
		100*metrics["trace.overhead_frac"].Value)
	if len(absent) > 0 {
		fmt.Printf("  counters absent from this build (read as 0): %v\n", absent)
	}
	fmt.Printf("  spans: %s\n", filepath.Join(workRoot, fmt.Sprintf("spans-%s-seed%d.json", o.w.name, o.seed)))
	o.printErrors()
	return o.finish(metrics)
}

// unitOf derives a per-layer metric's unit from its name suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "sites_per_s"):
		return "sites/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_kb"):
		return "KB/site"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"):
		return "fraction"
	}
	return "count"
}

// printErrors prints the ground-truth error fraction and every failed
// check.
func (o *orchestrator) printErrors() {
	fmt.Printf("  %-13s %12.4f %-8s %d of %d sites attempted differ from synthweb ground truth or panicked\n",
		"error_frac", ratio(float64(o.failed), float64(o.attempted)), "fraction", o.failed, o.attempted)
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

// finish prints the result line; any failed check makes the run
// incorrect and the exit code nonzero.
func (o *orchestrator) finish(metrics map[string]metric) int {
	res := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	fmt.Println(string(buf))
	if !res.Correct {
		return 1
	}
	return 0
}
