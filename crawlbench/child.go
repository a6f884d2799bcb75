package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"permodyssey/internal/analysis"
	"permodyssey/internal/bundle"
	"permodyssey/internal/core"
	"permodyssey/internal/store"
)

// crawlResult is what one crawl process reports to the orchestrator,
// as one JSON object on its standard output.
type crawlResult struct {
	Records int `json:"records"`
	// SetupS runs from process spawn to the first visit dispatch;
	// SitesPerS counts records over the first dispatch to the last
	// record.
	SetupS    float64 `json:"setup_s"`
	SitesPerS float64 `json:"sites_per_s"`
	// SingleMs are the elapsed times of the single-attempt records; the
	// orchestrator pools them over a run's crawls for the percentiles.
	SingleMs  []float64 `json:"single_ms"`
	ReportS   float64   `json:"report_s"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// Mismatches are records whose failure class differs from the
	// synthweb ground truth; Panics visits the crawler recovered from.
	Mismatches int `json:"mismatches"`
	Panics     int `json:"panics"`
	// ReportDigest is the SHA-256 of the crawl-time report.
	ReportDigest string `json:"report_digest"`
	// Problems lists every failed output check.
	Problems []string `json:"problems,omitempty"`
	// Layers holds the per-layer metrics of a traced crawl.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Absent lists the CrawlStats keys this build does not have.
	Absent []string `json:"absent,omitempty"`
}

// visitRec is what the sink keeps of one record.
type visitRec struct {
	rank      int
	doneNS    int64
	elapsedNS int64
	retries   int
	failure   store.FailureClass
}

// recorder is the crawl's Sink: it timestamps each record on arrival
// and, in a traced crawl, samples the runtime as the crawl progresses.
type recorder struct {
	total  int
	trace  bool
	visits []visitRec

	frames, invocations, headerFrames int

	// Traced only: live heap against sites completed, runtime CPU
	// classes at the first and last record, and the heap profile taken
	// at the last record.
	liveSites, liveBytes []float64
	cpuFirst, cpuLast    []metrics.Sample
	liveAtEnd            float64
	heap                 map[string]float64
}

var cpuClasses = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime(names []string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// value returns a runtime metric as a float64 (0 when unsupported).
func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

func (r *recorder) sink(rec store.SiteRecord) {
	now := time.Now().UnixNano()
	r.visits = append(r.visits, visitRec{
		rank: rec.Rank, doneNS: now, elapsedNS: int64(rec.Elapsed),
		retries: rec.Retries, failure: rec.Failure,
	})
	if rec.Page != nil {
		for _, fr := range rec.Page.Frames {
			r.frames++
			r.invocations += len(fr.Invocations)
			if fr.HasPermissionsPolicy || fr.HasFeaturePolicy {
				r.headerFrames++
			}
		}
	}
	if !r.trace {
		return
	}
	n := len(r.visits)
	if n == 1 {
		r.cpuFirst = readRuntime(cpuClasses)
	}
	if n%32 == 0 {
		live := readRuntime(cpuClasses[3:])
		r.liveSites = append(r.liveSites, float64(n))
		r.liveBytes = append(r.liveBytes, value(live[0]))
	}
	if n == r.total {
		// The last record: the caches are still alive. Collect, then
		// charge what survives to the allocating modules.
		runtime.GC()
		r.cpuLast = readRuntime(cpuClasses)
		r.liveAtEnd = value(r.cpuLast[3])
		r.heap = heapByBucket()
	}
}

// runCrawl is the child mode: one crawl of one workload in this fresh
// process, then (unless filling an archive) the report regenerated
// from the sealed bundle. It prints a crawlResult and returns the exit
// code.
func runCrawl(args []string) int {
	fs := flag.NewFlagSet("crawl", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "population seed")
	spawnNS := fs.Int64("spawn-ns", 0, "Unix time in ns at which the orchestrator spawned this process")
	dir := fs.String("dir", "", "work directory for the dataset and bundle")
	archive := fs.String("archive", "", "resource archive directory")
	offline := fs.Bool("offline", false, "replay the archive instead of crawling the synthetic web")
	fill := fs.Bool("fill", false, "only crawl into the archive; skip the bundle and report path")
	trace := fs.Bool("trace", false, "profile this crawl and report per-layer metrics")
	spansPath := fs.String("spans", "", "write the run's spans to this file (traced crawls)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 2
	}
	if *trace {
		// Finer heap sampling than the 512 KiB default, so small
		// modules show up in the heap attribution.
		runtime.MemProfileRate = 64 << 10
	}
	var cpuProf bytes.Buffer
	if *trace {
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			fmt.Fprintln(os.Stderr, "crawlbench:", err)
			return 1
		}
	}
	res, spans, err := crawlOnce(w, *seed, *spawnNS, *dir, *archive, *offline, *fill, *trace)
	if *trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	if *trace {
		p, err := parseProfile(cpuProf.Bytes())
		if err == nil {
			var cpu cpuProfile
			if cpu, err = bucketCPU(p); err == nil {
				for _, b := range buckets {
					res.Layers["cpu."+b+"_s"] = cpu.seconds[b]
				}
				res.Layers["cpu.sha256_s"] = cpu.sha256
			}
		}
		if err != nil {
			res.Problems = append(res.Problems, "cpu profile: "+err.Error())
		}
		if *spansPath != "" {
			if err := writeSpans(*spansPath, spans); err != nil {
				res.Problems = append(res.Problems, "writing spans: "+err.Error())
			}
		}
	}
	res.PeakRSSMB = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "crawlbench:", err)
		return 1
	}
	return 0
}

// crawlOnce runs the crawl and the bundle/report path and measures
// both.
func crawlOnce(w workload, seed, spawnNS int64, dir, archive string, offline, fill, trace bool) (*crawlResult, []span, error) {
	opts := w.options(seed, archive, offline)
	rec := &recorder{total: w.sites, trace: trace}
	opts.Crawl.Sink = rec.sink
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	m, err := core.Run(ctx, opts)
	if err != nil {
		return nil, nil, err
	}
	crawlReport := m.Report()
	res := &crawlResult{Records: len(rec.visits)}
	sum := sha256.Sum256([]byte(crawlReport))
	res.ReportDigest = hex.EncodeToString(sum[:])
	if ctx.Err() != nil {
		res.Problems = append(res.Problems, "crawl exceeded its time limit")
	}
	if len(m.Dataset.Records) != w.sites || len(rec.visits) != w.sites {
		res.Problems = append(res.Problems, fmt.Sprintf("crawl produced %d records (%d sunk), want %d",
			len(m.Dataset.Records), len(rec.visits), w.sites))
	}

	// Ground truth: each rank's final class against its descriptor.
	web := w.population(seed)
	seen := make(map[int]bool, len(rec.visits))
	for _, v := range rec.visits {
		if seen[v.rank] {
			res.Problems = append(res.Problems, fmt.Sprintf("rank %d recorded twice", v.rank))
		}
		seen[v.rank] = true
		if want := expectedClass(web, v.rank, w.retryBudget()); v.failure != want {
			res.Mismatches++
			if res.Mismatches <= 5 {
				fmt.Fprintf(os.Stderr, "crawlbench: rank %d: class %q, ground truth %q\n", v.rank, v.failure, want)
			}
		}
	}
	stats, absent := flattenStats(m.Stats)
	res.Absent = absent
	res.Panics = int(stats["Crawl.Panics"])
	if res.Mismatches > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d records differ from the synthweb ground truth", res.Mismatches))
	}
	if res.Panics > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d visits panicked", res.Panics))
	}
	if n, ok := stats["Fetch.network_fetches"]; ok && offline && n != 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("offline replay made %v network fetches", n))
	}

	// Visit timing. A retried visit re-queues at the tail of the ready
	// queue, so its elapsed time measures queue position: only
	// single-attempt records feed the latency percentiles.
	first, last := int64(1<<63-1), int64(0)
	var single, retried []float64
	var busyNS int64
	spans := []span{}
	for _, v := range rec.visits {
		first = min(first, v.doneNS-v.elapsedNS)
		last = max(last, v.doneNS)
		if v.retries == 0 {
			single = append(single, float64(v.elapsedNS)/1e6)
			busyNS += v.elapsedNS
		} else {
			retried = append(retried, float64(v.elapsedNS)/1e6)
		}
		if trace {
			spans = append(spans, span{Name: "visit", ID: v.rank, Parent: "crawl", Start: v.doneNS - v.elapsedNS, End: v.doneNS})
		}
	}
	if len(rec.visits) == 0 {
		return nil, nil, fmt.Errorf("crawl produced no records")
	}
	crawlS := float64(last-first) / 1e9
	res.SetupS = float64(first-spawnNS) / 1e9
	res.SitesPerS = ratio(float64(len(rec.visits)), crawlS)
	res.SingleMs = single
	// A closed loop keeps every worker inside a visit for all but
	// microseconds of the crawl, while the window's start is taken from
	// Sink timestamps that lag each visit's end by the hand-off to the
	// collector; the check allows that lag 1% of the window.
	if busy, limit := float64(busyNS)/1e9, float64(opts.Crawl.Workers)*crawlS; busy > 1.01*limit {
		res.Problems = append(res.Problems, fmt.Sprintf("visit busy time %.3fs exceeds %d workers × %.3fs crawl", busy, opts.Crawl.Workers, crawlS))
	}
	spans = append([]span{
		{Name: "setup", Start: spawnNS, End: first},
		{Name: "crawl", Start: first, End: last},
	}, spans...)
	if fill {
		return res, spans, nil
	}

	// The report regenerated from the sealed bundle, as permcrawl
	// -bundle and permreport -from-bundle do it.
	rp, err := reportPath(m, crawlReport, dir, archive, w, seed, trace)
	if err != nil {
		return nil, nil, err
	}
	res.Problems = append(res.Problems, rp.problems...)
	res.ReportS = rp.total
	spans = append(spans, rp.spans...)
	if !trace {
		return res, spans, nil
	}

	l := map[string]float64{
		"crawler.visit_busy_s":           float64(busyNS) / 1e9,
		"crawler.retried_records":        float64(len(retried)),
		"crawler.retries":                stats["Crawl.Retries"],
		"crawler.requeued":               stats["Crawl.Requeued"],
		"crawler.breaker_deferred":       stats["Crawl.BreakerDeferred"],
		"crawler.breaker_short_circuits": stats["Breaker.ShortCircuits"],
		"crawler.panics":                 stats["Crawl.Panics"],
		"browser.frames":                 float64(rec.frames),
		"browser.network_fetches":        stats["Fetch.network_fetches"],
		"browser.fetch_hit_ratio":        ratio(stats["Fetch.hits"], stats["Fetch.hits"]+stats["Fetch.misses"]),
		"browser.fetch_errors":           stats["Fetch.errors"],
		"diskcache.writes":               stats["Fetch.disk.writes"],
		"diskcache.bytes_stored_mb":      stats["Fetch.disk.bytes_stored"] / mb,
		"diskcache.hits":                 stats["Fetch.disk.hits"],
		"diskcache.corrupt_recovered":    stats["Fetch.disk.corrupt_recovered"],
		"html.cache_hit_ratio":           ratio(stats["DOM.Hits"], stats["DOM.Hits"]+stats["DOM.Misses"]),
		"html.cache_reported_mb":         stats["DOM.CachedBytes"] / mb,
		"script.compile_hit_ratio":       ratio(stats["Compile.Hits"], stats["Compile.Hits"]+stats["Compile.Misses"]),
		"script.parse_misses":            stats["Parse.Misses"],
		"webapi.invocations":             float64(rec.invocations),
		"static.cache_hit_ratio":         ratio(stats["Static.Hits"], stats["Static.Hits"]+stats["Static.Misses"]),
		"policy.header_frames":           float64(rec.headerFrames),
		"runtime.live_heap_mb":           rec.liveAtEnd / mb,
		"runtime.live_heap_per_site_kb":  slope(rec.liveSites, rec.liveBytes) / 1024,
	}
	for k, v := range rp.layers {
		l[k] = v
	}
	// What the excluded retried visits would have reported: their
	// elapsed time spans backoff and queue waits, not visit work.
	// Too few retried records to support a median read as 0.
	l["crawler.retried_visit_p50_ms"], _ = percentile(retried, 0.5)
	if rec.cpuFirst != nil && rec.cpuLast != nil {
		d := make([]float64, 3)
		for i := range d {
			d[i] = value(rec.cpuLast[i]) - value(rec.cpuFirst[i])
		}
		l["runtime.cpu_idle_frac"] = ratio(d[1], d[0])
		l["runtime.gc_cpu_frac"] = ratio(d[2], d[0]-d[1])
	}
	for _, b := range buckets {
		if b != "gc" {
			l["heap."+b+"_mb"] = rec.heap[b] / mb
		}
	}
	res.Layers = l
	return res, spans, nil
}

const mb = 1 << 20

// reportResult is the measured bundle/report path.
type reportResult struct {
	total    float64
	spans    []span
	layers   map[string]float64
	problems []string
}

// reportPath saves the dataset, seals it with the archive, opens and
// verifies the bundle, decodes its dataset and regenerates the report,
// timing each step. The regenerated report must equal the crawl-time
// report byte for byte.
func reportPath(m *core.Measurement, crawlReport, dir, archive string, w workload, seed int64, trace bool) (reportResult, error) {
	var rr reportResult
	rr.layers = map[string]float64{}
	// step times one call, recorded as the span name and the per-layer
	// metric metric.
	step := func(name, metric string, fn func() error) error {
		if trace {
			// Collect between steps so one step's garbage is not
			// charged to the next; the steps' own times exclude it.
			runtime.GC()
		}
		start := time.Now().UnixNano()
		err := fn()
		end := time.Now().UnixNano()
		rr.spans = append(rr.spans, span{Name: name, Start: start, End: end})
		rr.total += float64(end-start) / 1e9
		rr.layers[metric] = float64(end-start) / 1e9
		return err
	}
	dsPath := filepath.Join(dir, "dataset.jsonl")
	bdir := filepath.Join(dir, "bundle")
	var (
		man bundle.Manifest
		b   *bundle.Bundle
		ds  *store.Dataset
		a   *analysis.Analysis
		rep string
	)
	if err := step("encode", "store.encode_s", func() error { return m.Dataset.SaveFile(dsPath) }); err != nil {
		return rr, err
	}
	err := step("seal", "bundle.seal_s", func() (err error) {
		man, err = bundle.Seal(bdir, bundle.Spec{
			DatasetPath: dsPath,
			ArchiveDir:  archive,
			Report:      crawlReport + "\n",
			Tool:        "crawlbench",
			ToolVersion: core.ToolVersion,
			Config:      bundle.Config{Sites: w.sites, Seed: seed, Chaos: w.chaos},
			Records:     len(m.Dataset.Records),
		})
		return err
	})
	if err != nil {
		return rr, err
	}
	err = step("verify", "bundle.verify_s", func() (err error) {
		if b, err = bundle.Open(bdir); err != nil {
			return err
		}
		return b.Verify("")
	})
	if err != nil {
		return rr, err
	}
	defer b.Close()
	heapBefore := liveHeap(trace)
	if err := step("decode", "store.decode_s", func() (err error) { ds, err = b.Dataset(); return err }); err != nil {
		return rr, err
	}
	rr.layers["store.dataset_heap_mb"] = (liveHeap(trace) - heapBefore) / mb
	if err := step("analyze", "analysis.new_s", func() error { a = analysis.New(ds); return nil }); err != nil {
		return rr, err
	}
	_ = step("render", "analysis.render_s", func() error { rep = a.FullReport(); return nil })
	runtime.KeepAlive(ds)

	if rep != crawlReport {
		rr.problems = append(rr.problems, "report regenerated from the bundle differs from the crawl-time report")
	}
	if sealed, err := b.Report(); err != nil || sealed != rep+"\n" {
		rr.problems = append(rr.problems, "sealed report differs from the regenerated report")
	}
	var sealedBytes int64
	for _, f := range man.Files {
		sealedBytes += f.Size
	}
	if fi, err := os.Stat(dsPath); err == nil {
		rr.layers["store.dataset_mb"] = float64(fi.Size()) / mb
	}
	rr.layers["bundle.bytes_hashed_mb"] = float64(sealedBytes) / mb
	return rr, nil
}

// liveHeap collects and returns the live heap in bytes (traced crawls
// only; 0 otherwise, so untraced timings carry no forced GC).
func liveHeap(trace bool) float64 {
	if !trace {
		return 0
	}
	runtime.GC()
	return value(readRuntime(cpuClasses[3:])[0])
}

// flattenStats reads the crawl's counters by JSON key into a flat
// "Outer.inner" map, so a counter a later build drops reads as absent
// instead of breaking this build. It also returns the keys the
// benchmark reads that are absent.
func flattenStats(v any) (map[string]float64, []string) {
	raw, err := json.Marshal(v)
	out := map[string]float64{}
	if err == nil {
		var tree map[string]any
		if json.Unmarshal(raw, &tree) == nil {
			flatten("", tree, out)
		}
	}
	var absent []string
	for _, k := range statKeys {
		if _, ok := out[k]; !ok {
			absent = append(absent, k)
		}
	}
	return out, absent
}

// statKeys are the CrawlStats keys the benchmark reads.
var statKeys = []string{
	"Crawl.Retries", "Crawl.Requeued", "Crawl.BreakerDeferred", "Crawl.Panics",
	"Breaker.ShortCircuits",
	"Fetch.network_fetches", "Fetch.hits", "Fetch.misses", "Fetch.errors",
	"Fetch.disk.writes", "Fetch.disk.bytes_stored", "Fetch.disk.hits", "Fetch.disk.corrupt_recovered",
	"DOM.Hits", "DOM.Misses", "DOM.CachedBytes",
	"Compile.Hits", "Compile.Misses", "Parse.Misses",
	"Static.Hits", "Static.Misses",
}

func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			if prefix != "" {
				k = prefix + "." + k
			}
			flatten(k, c, out)
		}
	case float64:
		out[prefix] = t
	}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
