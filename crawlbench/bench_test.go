package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

func TestPercentileSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	// 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
	if v, err := percentile(seq(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	// 999 samples leave only 9 beyond the p99 rank: refused.
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Error("p99 over 999 samples was reported; want the sample-count rule to refuse it")
	}
	if v, err := percentile(seq(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(seq(19), 0.5); err == nil {
		t.Error("p50 over 19 samples leaves 9 beyond it; want it refused")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples was reported")
	}
}

func TestMedianAndSlope(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if s := slope([]float64{1, 2, 3, 4}, []float64{10, 12, 14, 16}); math.Abs(s-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", s)
	}
	if s := slope([]float64{5, 5}, []float64{1, 2}); s != 0 {
		t.Errorf("slope with no x spread = %v, want 0", s)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		// Innermost module frame wins over its callers.
		{[]string{"strings.Index", "permodyssey/internal/html.parseInto", "permodyssey/internal/browser.(*Browser).Visit", "permodyssey/internal/crawler.(*Crawler).worker"}, "html"},
		// Helper packages are charged to the module that called them.
		{[]string{"permodyssey/internal/header.parseDict", "permodyssey/internal/policy.ParseHeader", "permodyssey/internal/browser.(*Browser).Visit"}, "policy"},
		{[]string{"permodyssey/internal/lru.(*Cache).Get", "permodyssey/internal/core.Run"}, "other"},
		{[]string{"syscall.write", "permodyssey/internal/synthweb.(*Server).serveSite.func1", "net/http.(*conn).serve"}, "synthweb"},
		// No module frame: the root function decides.
		{[]string{"bufio.(*Reader).Peek", "net/http.(*persistConn).readLoop", "runtime.goexit"}, "net_client"},
		{[]string{"net/textproto.readLine", "net/http.(*conn).serve"}, "net_server"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime._GC"}, "gc"},
		{[]string{"runtime.futex", "runtime.mstart"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestBucketCPUHandBuiltProfile(t *testing.T) {
	p := &profile{
		types: []string{"samples", "cpu"},
		samples: []sample{
			{[]string{"crypto/sha256.block", "permodyssey/internal/html.(*ParseCache).Parse"}, []int64{3, 30e6}},
			{[]string{"permodyssey/internal/script.(*Realm).Run"}, []int64{2, 20e6}},
			{[]string{"crypto/sha256.block", "permodyssey/internal/diskcache.(*Archive).Store"}, []int64{1, 10e6}},
			{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, []int64{4, 40e6}},
		},
	}
	got, err := bucketCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"html": 0.03, "script": 0.02, "diskcache": 0.01, "gc": 0.04}
	for b, w := range want {
		if math.Abs(got.seconds[b]-w) > 1e-12 {
			t.Errorf("bucket %s = %v s, want %v", b, got.seconds[b], w)
		}
	}
	if math.Abs(got.sha256-0.04) > 1e-12 || math.Abs(got.total-0.10) > 1e-12 {
		t.Errorf("sha256 overlay %v, total %v; want 0.04, 0.10", got.sha256, got.total)
	}
	if _, err := bucketCPU(&profile{types: []string{"alloc_space"}}); err == nil {
		t.Error("a profile without a cpu sample type was bucketed")
	}
}

// pb is a minimal protobuf writer for hand-built profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

func TestParseHandBuiltProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"permodyssey/internal/webapi.(*Realm).call", "permodyssey/internal/script.run", "main.main"}
	var prof pb
	for _, st := range [][2]uint64{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st[0])
		vt.varint(2, st[1])
		prof.bytes(1, vt.b)
	}
	// Sample 1: packed fields, two locations. Sample 2: unpacked.
	var s1 pb
	s1.packed(1, 1, 2)
	s1.packed(2, 5, 50e6)
	prof.bytes(2, s1.b)
	var s2 pb
	s2.varint(1, 2)
	s2.varint(2, 1)
	s2.varint(2, 10e6)
	prof.bytes(2, s2.b)
	// Location 1 holds webapi inlined into script; location 2 main.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}} {
		var l pb
		l.varint(1, loc.id)
		for _, fn := range loc.fns {
			var ln pb
			ln.varint(1, fn)
			ln.varint(2, 7)
			l.bytes(4, ln.b)
		}
		prof.bytes(4, l.b)
	}
	for id, name := range []uint64{5, 6, 7} {
		var f pb
		f.varint(1, uint64(id+1))
		f.varint(2, name)
		prof.bytes(5, f.b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	prof.varint(12, 10e6) // period: an unread field is skipped
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	p, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p.types, ",") != "samples,cpu" || len(p.samples) != 2 {
		t.Fatalf("types %v, %d samples", p.types, len(p.samples))
	}
	want := "permodyssey/internal/webapi.(*Realm).call permodyssey/internal/script.run main.main"
	if got := strings.Join(p.samples[0].stack, " "); got != want {
		t.Errorf("stack = %q, want %q", got, want)
	}
	cpu, err := bucketCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.seconds["webapi"] != 0.05 || cpu.seconds["other"] != 0.01 {
		t.Errorf("buckets %v; want webapi 0.05 s, other 0.01 s", cpu.seconds)
	}
	if _, err := parseProfile(gz.Bytes()[:20]); err == nil {
		t.Error("a truncated profile parsed")
	}
}

// TestParseRuntimeProfile reads a real runtime/pprof CPU profile, so
// the decoder tracks the format the Go toolchain actually writes.
func TestParseRuntimeProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("burns CPU for a profile")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	data := make([]byte, 1<<16)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		sum := sha256.Sum256(data)
		data[0] = sum[0]
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := bucketCPU(p)
	if err != nil {
		t.Fatal(err)
	}
	if cpu.sha256 <= 0 || cpu.sha256 > cpu.total {
		t.Errorf("sha256 overlay %v s of %v s total; want a positive share", cpu.sha256, cpu.total)
	}
}

func TestScaleHeap(t *testing.T) {
	// Two in-use objects averaging 64 KiB, sampled at a 64 KiB rate, are
	// each seen with probability 1-1/e.
	got := scaleHeap(2, 2*65536, 65536)
	if want := 2 * 65536 / (1 - math.Exp(-1)); math.Abs(got-want) > 1e-6 {
		t.Errorf("scaleHeap = %v, want %v", got, want)
	}
	// Smaller in-use objects are sampled less often, so scale up more.
	if small := scaleHeap(8, 2*65536, 65536); small <= got {
		t.Errorf("8 objects of 16 KiB scaled to %v, want more than %v", small, got)
	}
	if got := scaleHeap(0, 0, 65536); got != 0 {
		t.Errorf("empty record scaled to %v", got)
	}
	if got := scaleHeap(3, 300, 1); got != 300 {
		t.Errorf("record sampled at every allocation scaled to %v, want 300", got)
	}
}

func TestGroundTruthClasses(t *testing.T) {
	kinds := map[synthweb.SiteKind]store.FailureClass{
		synthweb.KindOK:          store.FailureNone,
		synthweb.KindUnreachable: store.FailureUnreachable,
		synthweb.KindTimeout:     store.FailureTimeout,
		synthweb.KindEphemeral:   store.FailureEphemeral,
		synthweb.KindMinor:       store.FailureMinor,
	}
	for k, want := range kinds {
		if got := classOf(synthweb.Site{Kind: k}, 2, 3); got != want {
			t.Errorf("kind %s: class %q, want %q", k, got, want)
		}
	}
	// A non-OK kind decides whatever fault the descriptor carries.
	if got := classOf(synthweb.Site{Kind: synthweb.KindMinor, Fault: synthweb.FaultFlap}, 2, 3); got != store.FailureMinor {
		t.Errorf("minor kind with a flap fault: class %q", got)
	}
	faults := map[synthweb.Fault]store.FailureClass{
		synthweb.FaultNone:            store.FailureNone,
		synthweb.FaultReset:           store.FailureEphemeral,
		synthweb.FaultSlowLoris:       store.FailureTimeout,
		synthweb.FaultMalformedHeader: store.FailureMinor,
		synthweb.FaultOversizedHeader: store.FailureMinor,
		synthweb.FaultRedirectLoop:    store.FailureMinor,
		synthweb.FaultFlap:            store.FailureNone,
		synthweb.FaultOversizedBody:   store.FailureNone,
	}
	for _, f := range synthweb.AllFaults {
		if _, ok := faults[f]; !ok {
			t.Errorf("fault %s has no ground-truth class in this test", f)
		}
	}
	for f, want := range faults {
		if got := classOf(synthweb.Site{Fault: f}, 2, 3); got != want {
			t.Errorf("fault %s: class %q, want %q", f, got, want)
		}
	}
	// The retry budget decides a flapping host: it recovers only with
	// at least as many retries as it has failures.
	if got := classOf(synthweb.Site{Fault: synthweb.FaultFlap}, 2, 1); got != store.FailureEphemeral {
		t.Errorf("flap with 1 retry for 2 failures: class %q, want ephemeral", got)
	}
	if got := classOf(synthweb.Site{Fault: synthweb.FaultFlap}, 2, 2); got != store.FailureNone {
		t.Errorf("flap with 2 retries for 2 failures: class %q, want success", got)
	}
}

func TestWorkloadPopulations(t *testing.T) {
	for name, w := range workloads {
		web := w.population(7)
		classes := map[store.FailureClass]int{}
		for rank := 1; rank <= 300; rank++ {
			classes[expectedClass(web, rank, w.retryBudget())]++
		}
		if classes[store.FailureTimeout] > 0 {
			t.Errorf("%s: %d timeout sites; no workload may sleep out deadlines", name, classes[store.FailureTimeout])
		}
		if !w.chaos && len(classes) != 1 {
			t.Errorf("%s: classes %v, want every site healthy", name, classes)
		}
		if w.chaos && (classes[store.FailureEphemeral] == 0 || classes[store.FailureMinor] == 0) {
			t.Errorf("%s: classes %v, want the fail-fast taxonomy present", name, classes)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Name: "crawl", Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30}, {Start: 20, End: 50}, // overlapping: union 10..50
		{Start: 60, End: 70},
		{Start: 90, End: 120},  // clipped to the parent: 90..100
		{Start: 150, End: 160}, // outside the parent
	}
	if got := selfTime(parent, children); got != 40 {
		t.Errorf("self time = %d, want 100 - (40+10+10) = 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	sum := summarizeSpans([]span{
		{Name: "setup", Start: 0, End: 5},
		parent,
		{Name: "visit", Parent: "crawl", Start: 10, End: 30},
		{Name: "visit", Parent: "crawl", Start: 20, End: 50},
	})
	if len(sum) != 3 || sum[1].Name != "crawl" || sum[2].Count != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if got := sum[1].SelfS * 1e9; math.Abs(got-60) > 1e-6 {
		t.Errorf("crawl self = %v ns, want 60", got)
	}
	if got := sum[2].TotalS * 1e9; math.Abs(got-50) > 1e-6 {
		t.Errorf("visit total = %v ns, want 50", got)
	}
}

func TestFlattenStatsByJSONKey(t *testing.T) {
	type inner struct {
		Hits int `json:"hits"`
	}
	stats := struct {
		Fetch inner
		Crawl struct{ Retries int }
	}{Fetch: inner{Hits: 3}}
	stats.Crawl.Retries = 2
	got, absent := flattenStats(stats)
	if got["Fetch.hits"] != 3 || got["Crawl.Retries"] != 2 {
		t.Errorf("flattened = %v", got)
	}
	// Keys this build lacks read as absent, not as a build break.
	found := false
	for _, k := range absent {
		found = found || k == "DOM.CachedBytes"
	}
	if !found {
		t.Errorf("absent = %v, want DOM.CachedBytes listed", absent)
	}
}
