package main

import (
	"fmt"
	"runtime"
	"time"

	"permodyssey/internal/core"
	"permodyssey/internal/crawler"
	"permodyssey/internal/store"
	"permodyssey/internal/synthweb"
)

// workload is one named crawl shape. Everything else about the crawl
// comes from core.DefaultMeasurementOptions, so the benchmark follows
// the shipped defaults (caches on, default cache bounds, default
// browser options).
type workload struct {
	name string
	// sites is the stated population size of one crawl.
	sites int
	// offline crawls replay an archive filled by a live crawl of the
	// same seed instead of fetching from the synthetic web.
	offline bool
	// chaos turns on the fail-fast failure taxonomy and the fault
	// layer; otherwise every site is healthy.
	chaos bool
}

var workloads = map[string]workload{
	"live":    {name: "live", sites: 1000},
	"chaos":   {name: "chaos", sites: 1400, chaos: true},
	"offline": {name: "offline", sites: 1000, offline: true},
}

// chaosFaults is the deterministic fault set: every kind but
// slow-loris, whose cost is the per-site deadline spent asleep.
var chaosFaults = []synthweb.Fault{
	synthweb.FaultReset, synthweb.FaultMalformedHeader, synthweb.FaultOversizedHeader,
	synthweb.FaultRedirectLoop, synthweb.FaultFlap, synthweb.FaultOversizedBody,
}

const (
	// chaosRetries lets a flapping host (FlapFailures = 2 by default)
	// recover with one attempt to spare.
	chaosRetries     = 3
	chaosBackoff     = 20 * time.Millisecond
	breakerThreshold = 3
	breakerCooldown  = 100 * time.Millisecond
	chaosFaultSeed   = 1
	perSiteTimeout   = 5 * time.Second
)

// population returns the synthetic-web configuration for a workload
// and seed. It is shared by the crawl and the ground-truth oracle.
func (w workload) population(seed int64) synthweb.Config {
	web := synthweb.DefaultConfig()
	web.Seed = seed
	web.NumSites = w.sites
	if !w.chaos {
		web.UnreachableRate, web.TimeoutRate, web.EphemeralRate, web.MinorRate = 0, 0, 0, 0
		return web
	}
	// Fail-fast taxonomy only: a timeout costs the per-site deadline in
	// sleep whatever the code does.
	web.TimeoutRate = 0
	cc := synthweb.DefaultChaosConfig()
	cc.Kinds = chaosFaults
	// One fault assignment for every population seed: which ranks reset,
	// flap or serve 6 MiB bodies stays fixed while the web around them
	// varies, so runs of different seeds carry the same fault load.
	cc.Seed = chaosFaultSeed
	web.Chaos = cc
	return web
}

// options builds the MeasurementOptions for one crawl. cacheDir is the
// archive the crawl writes through to (or, offline, replays).
func (w workload) options(seed int64, cacheDir string, offline bool) core.MeasurementOptions {
	opts := core.DefaultMeasurementOptions()
	opts.Web = w.population(seed)
	opts.Crawl.Workers = runtime.NumCPU()
	opts.Crawl.PerSiteTimeout = perSiteTimeout
	opts.StallTime = 2 * perSiteTimeout
	opts.CacheDir = cacheDir
	opts.Offline = offline
	if w.chaos {
		opts.Crawl.MaxRetries = chaosRetries
		opts.Crawl.RetryBackoff = chaosBackoff
		opts.Crawl.DeferBreakerOpen = true
		opts.Breaker = crawler.BreakerConfig{Threshold: breakerThreshold, Cooldown: breakerCooldown}
	}
	return opts
}

// retryBudget is the number of extra attempts a transient failure gets.
func (w workload) retryBudget() int {
	if w.chaos {
		return chaosRetries
	}
	return 0
}

// expectedClass is the final failure class the synthweb descriptor of
// a rank implies under a retry budget. It reads only the generator's
// ground truth, never the crawler's classifier.
func expectedClass(web synthweb.Config, rank, retries int) store.FailureClass {
	flaps := web.Chaos.FlapFailures
	if flaps <= 0 {
		flaps = synthweb.DefaultChaosConfig().FlapFailures
	}
	return classOf(web.Generate(rank), flaps, retries)
}

// classOf maps one site descriptor to its final failure class: the
// polite taxonomy by Kind, then the chaos fault layered over a healthy
// site. A flapping host resets its first flaps requests, then serves.
func classOf(site synthweb.Site, flaps, retries int) store.FailureClass {
	switch site.Kind {
	case synthweb.KindUnreachable:
		return store.FailureUnreachable
	case synthweb.KindTimeout:
		return store.FailureTimeout
	case synthweb.KindEphemeral:
		return store.FailureEphemeral
	case synthweb.KindMinor:
		return store.FailureMinor
	}
	switch site.Fault {
	case synthweb.FaultReset:
		return store.FailureEphemeral
	case synthweb.FaultSlowLoris:
		return store.FailureTimeout
	case synthweb.FaultMalformedHeader, synthweb.FaultOversizedHeader, synthweb.FaultRedirectLoop:
		return store.FailureMinor
	case synthweb.FaultFlap:
		if retries >= flaps {
			return store.FailureNone
		}
		return store.FailureEphemeral
	}
	// Healthy, or an oversized body that truncates into a partial record.
	return store.FailureNone
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (workload, error) {
	w, ok := workloads[name]
	if !ok {
		return workload{}, fmt.Errorf("unknown workload %q (want live, chaos or offline)", name)
	}
	return w, nil
}
