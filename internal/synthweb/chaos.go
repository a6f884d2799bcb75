package synthweb

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Fault is one chaos-layer failure mode a synthetic host can exhibit on
// top of the polite site-fate taxonomy (SiteKind). Where SiteKind
// reproduces the paper's §4 outcome classes, faults reproduce the
// hostile server behaviours a production crawl meets on the way there:
// connections that die mid-body, servers that drip bytes forever,
// responses the HTTP client cannot parse, redirect cycles, origins that
// flap, and bodies that never end.
type Fault uint8

const (
	FaultNone Fault = iota
	// FaultReset closes the connection with a TCP RST mid-body.
	FaultReset
	// FaultSlowLoris serves headers promptly and then drips the body a
	// few bytes at a time, slower than any reasonable page deadline.
	FaultSlowLoris
	// FaultMalformedHeader speaks a response whose header section does
	// not parse as HTTP.
	FaultMalformedHeader
	// FaultOversizedHeader serves a response header larger than the
	// client transport's response-header budget.
	FaultOversizedHeader
	// FaultRedirectLoop 302-redirects in a cycle until the client gives
	// up.
	FaultRedirectLoop
	// FaultFlap fails (RST) the first ChaosConfig.FlapFailures requests
	// to the host, then recovers — the retry/circuit-breaker exerciser.
	FaultFlap
	// FaultOversizedBody serves a body larger than the fetcher's
	// MaxBodyBytes, forcing the truncation path.
	FaultOversizedBody
)

// AllFaults lists every injectable fault kind.
var AllFaults = []Fault{
	FaultReset, FaultSlowLoris, FaultMalformedHeader, FaultOversizedHeader,
	FaultRedirectLoop, FaultFlap, FaultOversizedBody,
}

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultReset:
		return "reset"
	case FaultSlowLoris:
		return "slow-loris"
	case FaultMalformedHeader:
		return "malformed-header"
	case FaultOversizedHeader:
		return "oversized-header"
	case FaultRedirectLoop:
		return "redirect-loop"
	case FaultFlap:
		return "flap"
	case FaultOversizedBody:
		return "oversized-body"
	}
	return "unknown"
}

// ParseFault resolves a fault name (the String form) back to its value.
func ParseFault(name string) (Fault, error) {
	for _, f := range append([]Fault{FaultNone}, AllFaults...) {
		if f.String() == name {
			return f, nil
		}
	}
	return FaultNone, fmt.Errorf("synthweb: unknown fault %q", name)
}

// ParseFaultList resolves a comma-separated fault-name list; an empty
// list means every kind.
func ParseFaultList(s string) ([]Fault, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Fault
	for _, name := range strings.Split(s, ",") {
		f, err := ParseFault(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// ChaosConfig turns the synthetic web hostile. Fault assignment is
// deterministic per (Seed, host): the same population with the same
// chaos settings always fails the same way, so chaotic crawls stay
// reproducible and resumable.
type ChaosConfig struct {
	// Enabled switches the chaos layer on.
	Enabled bool
	// Seed decorrelates fault assignment from population generation; 0
	// reuses the population seed.
	Seed int64
	// SiteRate is the share of otherwise-healthy sites afflicted with a
	// random enabled fault.
	SiteRate float64
	// SubresourceRate is the share of shared widget/CDN hosts afflicted.
	// Subresource faults are always mid-body resets: a stateless,
	// order-independent failure, so a chaotic crawl's records do not
	// depend on visit scheduling (flapping or dripping shared hosts
	// would couple one site's record to its neighbours' timing).
	SubresourceRate float64
	// Kinds limits site faults to these kinds; empty means AllFaults.
	Kinds []Fault
	// FlapFailures is how many requests a flapping host fails before it
	// recovers (default 2).
	FlapFailures int
	// DripDelay is the slow-loris inter-chunk delay (default 40ms).
	DripDelay time.Duration
	// OversizeBytes is the FaultOversizedBody body size (default 6 MiB,
	// above the fetcher's 4 MiB MaxBodyBytes default).
	OversizeBytes int
}

// DefaultChaosConfig returns a chaos layer calibrated so every fault
// kind appears in a few-hundred-site population without drowning the
// healthy measurement.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Enabled:         true,
		SiteRate:        0.08,
		SubresourceRate: 0.10,
		FlapFailures:    2,
		DripDelay:       40 * time.Millisecond,
		OversizeBytes:   6 << 20,
	}
}

// withDefaults fills unset tuning fields.
func (cc ChaosConfig) withDefaults(populationSeed int64) ChaosConfig {
	if cc.Seed == 0 {
		cc.Seed = populationSeed
	}
	if cc.FlapFailures <= 0 {
		cc.FlapFailures = 2
	}
	if cc.DripDelay <= 0 {
		cc.DripDelay = 40 * time.Millisecond
	}
	if cc.OversizeBytes <= 0 {
		cc.OversizeBytes = 6 << 20
	}
	return cc
}

// kinds returns the enabled site-fault kinds, sorted and without
// repeats, so a kind's share of faulted sites does not depend on how
// often or where the list names it.
func (cc ChaosConfig) kinds() []Fault {
	if len(cc.Kinds) == 0 {
		return AllFaults
	}
	out := slices.Clone(cc.Kinds)
	slices.Sort(out)
	return slices.Compact(out)
}

// hostFraction hashes a host into [0, 1) under the chaos seed —
// the deterministic coin for per-host subresource faults.
func hostFraction(seed int64, host string) float64 {
	z := uint64(seed) * 0x9E3779B97F4A7C15
	for i := 0; i < len(host); i++ {
		z = (z ^ uint64(host[i])) * 0x100000001B3
	}
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

// SubresourceFault reports the fault (if any) for a shared widget/CDN
// host. Always FaultReset — see ChaosConfig.SubresourceRate.
func (cc ChaosConfig) SubresourceFault(populationSeed int64, host string) Fault {
	if !cc.Enabled || cc.SubresourceRate <= 0 {
		return FaultNone
	}
	cc = cc.withDefaults(populationSeed)
	if hostFraction(cc.Seed, host) < cc.SubresourceRate {
		return FaultReset
	}
	return FaultNone
}
