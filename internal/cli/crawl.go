package cli

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"permodyssey/internal/bundle"
	"permodyssey/internal/core"
	"permodyssey/internal/crawler"
	"permodyssey/internal/policy"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// Crawl is the permcrawl command.
func Crawl(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("permcrawl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sites := fs.Int("sites", 5000, "number of synthetic sites to generate and crawl")
	seed := fs.Int64("seed", 1, "population seed (crawls are reproducible per seed)")
	workers := fs.Int("workers", crawler.DefaultWorkers, "parallel crawlers (the paper used 40)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-site hard deadline")
	out := fs.String("out", "crawl.jsonl", "output dataset path")
	interact := fs.Bool("interact", false, "fire click/load handlers (Appendix A.3 manual mode)")
	noLazy := fs.Bool("no-lazy-scroll", false, "do not scroll lazy iframes (ablation)")
	expected := fs.Bool("expected-spec", false, "use the fixed local-scheme inheritance instead of the spec as written")
	report := fs.Bool("report", false, "print the full analysis report after the crawl")
	follow := fs.Int("follow-links", 0, "visit up to N same-site internal pages per site (lifts the §6.1 landing-page limitation)")
	retries := fs.Int("retries", 1, "retry transient failures (timeout, ephemeral) up to N extra attempts with exponential backoff")
	backoff := fs.Duration("retry-backoff", crawler.DefaultRetryBackoff, "base delay before the first retry (doubles per attempt)")
	deferBreaker := fs.Bool("defer-breaker-open", true, "defer visits to breaker-open hosts until the half-open probe time instead of recording breaker-open failures")
	noCache := fs.Bool("no-cache", false, "disable the two shared caches: fetch responses and script artifacts (compiled program plus static findings)")
	cacheBytes := fs.Int64("cache-bytes", core.DefaultCacheBytes, "cap each of the fetch and script caches at N bytes of what its entries keep alive (fetched bodies, script sources), evicted LRU (0 = unbounded)")
	resume := fs.Bool("resume", false, "load an existing -out dataset, skip its completed ranks, and append the rest")
	chaos := fs.Bool("chaos", false, "inject deterministic faults into the synthetic web (resets, slow-loris, malformed headers, redirect loops, flapping hosts, oversized bodies)")
	chaosSeed := fs.Int64("chaos-seed", 0, "fault-assignment seed (0 = population seed)")
	chaosRate := fs.Float64("chaos-rate", 0.08, "fraction of healthy sites given a fault")
	chaosSubRate := fs.Float64("chaos-subresource-rate", 0.10, "fraction of shared widget/CDN hosts that reset mid-body")
	chaosFaults := fs.String("chaos-faults", "", "comma-separated fault kinds to inject (default all: reset,slow-loris,malformed-header,oversized-header,redirect-loop,flap,oversized-body)")
	breakerDefaults := crawler.DefaultBreakerConfig()
	breakerN := fs.Int("breaker-threshold", breakerDefaults.Threshold, "consecutive per-host failures before the circuit breaker opens (0 = breaker off)")
	breakerCooldown := fs.Duration("breaker-cooldown", breakerDefaults.Cooldown, "how long an open circuit waits before half-open probing")
	maxBody := fs.Int64("max-body", 0, "cap fetched bodies at N bytes; oversized pages become partial records (0 = 4 MiB default)")
	cacheDir := fs.String("cache-dir", "", "persist every fetch outcome to a content-addressed archive rooted here; later runs read it back instead of refetching")
	offline := fs.Bool("offline", false, "strict replay from -cache-dir: no network fetches, archived failures replay as recorded, misses become unreachable failures")
	statsJSON := fs.String("stats-json", "", "write the run's cache/crawl/archive counters as indented JSON to this file")
	era := fs.Int("era", 0, "crawl a population calibrated to this measurement year (2020, 2022, or 2024+; 0 = the paper's present-day defaults) for longitudinal comparisons")
	bundlePath := fs.String("bundle", "", "after a finished crawl, seal config, dataset, report, and the -cache-dir archive into a Web Execution Bundle at this path (directory or .tar.gz)")
	bundleKey := fs.String("bundle-key", "", "HMAC-sign the bundle digest with this key")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the crawl to this file (runtime/pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file once the crawl returns, after a forced GC; its alloc_space sample shows the crawl's allocation churn")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *offline && *cacheDir == "" {
		fmt.Fprintln(stderr, "permcrawl: -offline requires -cache-dir")
		return 2
	}
	if *cacheDir != "" && *noCache {
		fmt.Fprintln(stderr, "permcrawl: -cache-dir is incompatible with -no-cache")
		return 2
	}
	if *bundlePath != "" && *cacheDir == "" {
		fmt.Fprintln(stderr, "permcrawl: -bundle requires -cache-dir (a bundle seals the resource archive)")
		return 2
	}

	opts := core.DefaultMeasurementOptions()
	if *era != 0 {
		// Era calibration replaces the population config wholesale, so it
		// must land before the explicit knobs below override it.
		opts.Web = synthweb.EraConfig(*era)
	}
	opts.Web.NumSites = *sites
	opts.Web.Seed = *seed
	opts.Crawl.Workers = *workers
	opts.Crawl.PerSiteTimeout = *timeout
	opts.Crawl.FollowInternalLinks = *follow
	opts.Crawl.MaxRetries = *retries
	opts.Crawl.RetryBackoff = *backoff
	opts.Crawl.DeferBreakerOpen = *deferBreaker
	opts.DisableCache = *noCache
	opts.CacheBytes = *cacheBytes
	opts.StallTime = 2 * *timeout
	if *chaos {
		cc := synthweb.DefaultChaosConfig()
		cc.Seed = *chaosSeed
		cc.SiteRate = *chaosRate
		cc.SubresourceRate = *chaosSubRate
		if *chaosFaults != "" {
			kinds, err := synthweb.ParseFaultList(*chaosFaults)
			if err != nil {
				fmt.Fprintln(stderr, "permcrawl:", err)
				return 2
			}
			cc.Kinds = kinds
		}
		opts.Web.Chaos = cc
	}
	opts.Breaker = crawler.BreakerConfig{Threshold: *breakerN, Cooldown: *breakerCooldown}
	opts.MaxBodyBytes = *maxBody
	opts.CacheDir = *cacheDir
	opts.Offline = *offline
	opts.BrowserOpts.Interact = *interact
	opts.BrowserOpts.ScrollLazyIframes = !*noLazy
	if *expected {
		opts.BrowserOpts.Mode = policy.SpecExpected
	}
	opts.Log = stderr
	last := 0
	opts.Crawl.Progress = func(done, total int) {
		if total > 0 && done*10/total != last {
			last = done * 10 / total
			fmt.Fprintf(stderr, "  %d%% (%d/%d)\n", last*10, done, total)
		}
	}

	// Resume: reload the completed prefix of a prior interrupted crawl
	// (tolerating a truncated final line) and append only new records.
	if *resume {
		if prior, err := store.LoadPartialFile(*out); err == nil && len(prior.Records) > 0 {
			// Keep what the crawl keeps, or the rewritten prefix would hold
			// a dropped record alongside its re-crawl.
			kept := crawler.Resumable(prior.Records)
			dropped := len(prior.Records) - len(kept)
			prior.Records = kept
			opts.Crawl.Resume = prior
			// Rewrite the complete prefix: an interrupted crawl may have
			// left a truncated final line, which appending would corrupt.
			if err := prior.SaveFile(*out); err != nil {
				fmt.Fprintln(stderr, "permcrawl: resume:", err)
				return 1
			}
			fmt.Fprintf(stderr, "resuming: %d records already in %s", len(prior.Records), *out)
			if dropped > 0 {
				fmt.Fprintf(stderr, " (%d canceled records dropped for re-crawl)", dropped)
			}
			fmt.Fprintln(stderr)
		} else if err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(stderr, "permcrawl: resume:", err)
			return 1
		}
	}

	// Stream each record to disk the moment its visit completes (C14),
	// rather than holding everything until the end of the crawl.
	mode := os.O_CREATE | os.O_WRONLY | os.O_TRUNC
	if opts.Crawl.Resume != nil {
		mode = os.O_CREATE | os.O_WRONLY | os.O_APPEND
	}
	f, err := os.OpenFile(*out, mode, 0o644)
	if err != nil {
		fmt.Fprintln(stderr, "permcrawl:", err)
		return 1
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	var sinkErr error
	opts.Crawl.Sink = func(rec store.SiteRecord) {
		if err := enc.Encode(rec); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}

	endProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		f.Close()
		fmt.Fprintln(stderr, "permcrawl:", err)
		return 1
	}
	m, err := core.Run(ctx, opts)
	profErr := endProfiles()
	if err != nil {
		f.Close()
		fmt.Fprintln(stderr, "permcrawl:", err)
		return 1
	}
	if err := bw.Flush(); err == nil {
		err = f.Close()
		if sinkErr != nil {
			err = sinkErr
		}
		if err != nil {
			fmt.Fprintln(stderr, "permcrawl: saving:", err)
			return 1
		}
	} else {
		f.Close()
		fmt.Fprintln(stderr, "permcrawl: saving:", err)
		return 1
	}
	fmt.Fprintf(stderr, "dataset written to %s (%d records, %s)\n",
		*out, len(m.Dataset.Records), m.Elapsed.Round(time.Millisecond))
	if profErr != nil {
		fmt.Fprintln(stderr, "permcrawl: writing profiles:", profErr)
		return 1
	}
	if *statsJSON != "" {
		buf, err := json.MarshalIndent(m.Stats, "", "  ")
		if err == nil {
			err = os.WriteFile(*statsJSON, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "permcrawl: writing stats:", err)
			return 1
		}
	}
	// A crawl cut short by cancellation (a SIGTERM, an operator's
	// Ctrl-C) still checkpointed everything above — but it is not a
	// finished dataset, and the distinct exit code tells a wrapping
	// script that the crawl wants a -resume rerun.
	if ctx.Err() != nil {
		fmt.Fprintf(stderr, "permcrawl: interrupted; %d records checkpointed in %s (rerun with -resume to finish)\n",
			len(m.Dataset.Records), *out)
		return 3
	}
	// Seal only a finished crawl: an interrupted one returned above, and
	// a bundle of half a dataset would replay as the wrong measurement.
	if *bundlePath != "" {
		cfg := bundle.Config{Sites: *sites, Seed: *seed, Era: *era, Chaos: *chaos, ChaosFaults: *chaosFaults, Flags: args}
		if err := sealCrawlBundle(*bundlePath, *cacheDir, *out, m.Report()+"\n", cfg, len(m.Dataset.Records), *bundleKey, stderr); err != nil {
			fmt.Fprintln(stderr, "permcrawl: sealing bundle:", err)
			return 1
		}
	}
	if *report {
		fmt.Fprintln(stdout, m.Report())
	}
	return 0
}

// startProfiles starts a CPU profile into cpuPath when it is set, and
// returns the function that ends it and then, when memPath is set,
// writes a heap profile there after a forced GC, so the profile's
// in-use samples are what the finished crawl still holds.
func startProfiles(cpuPath, memPath string) (end func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
