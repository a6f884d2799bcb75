// Package cli implements the command-line surface behind the cmd/
// binaries as testable functions: each takes raw arguments and output
// writers and returns a process exit code. The main packages are thin
// wrappers, so the entire command behaviour is covered by unit tests.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"permodyssey/internal/analysis"
	"permodyssey/internal/core"
	"permodyssey/internal/permissions"
	"permodyssey/internal/policy"
	"permodyssey/internal/store"
)

// Lint is the policylint command.
func Lint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("policylint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	header := fs.String("header", "", "Permissions-Policy header value to lint")
	fpHeader := fs.String("feature-policy", "", "legacy Feature-Policy header value to lint")
	allow := fs.String("allow", "", "iframe allow attribute to lint")
	embedded := fs.Bool("embedded", false, "lint as an embedded document's header")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *header == "" && *allow == "" && *fpHeader == "" {
		fs.Usage()
		return 2
	}
	exit := 0
	printIssues := func(scope string, issues []policy.Issue) {
		if len(issues) == 0 {
			fmt.Fprintf(stdout, "%s: no issues\n", scope)
			return
		}
		for _, i := range issues {
			fmt.Fprintf(stdout, "%s: %s\n", scope, i)
		}
		exit = 1
	}
	if *header != "" {
		issues := policy.Lint(*header, !*embedded)
		if policy.HasBlockingIssue(issues) {
			fmt.Fprintln(stdout, "INVALID: the browser drops this header entirely; default allowlists apply")
			exit = 1
		} else if p, _, err := policy.ParsePermissionsPolicy(*header); err == nil {
			fmt.Fprintf(stdout, "parsed %d directives: %s\n", len(p.Directives), p.HeaderValue())
		}
		printIssues("header", issues)
	}
	if *fpHeader != "" {
		p, issues := policy.ParseFeaturePolicy(*fpHeader)
		fmt.Fprintf(stdout, "feature-policy parsed %d directives (deprecated; only Chromium still enforces it)\n", len(p.Directives))
		printIssues("feature-policy", issues)
	}
	if *allow != "" {
		p, issues := policy.ParseAllowAttr(*allow)
		fmt.Fprintf(stdout, "allow attribute parsed %d directives: %s\n", len(p.Directives), p.AllowAttrValue())
		for _, d := range p.Directives {
			if d.Allowlist.All {
				issues = append(issues, policy.Issue{
					Kind: policy.IssueContradictory, Feature: d.Feature,
					Detail: "wildcard delegation survives redirects of the iframe (§5.2); pin the origin",
				})
			}
		}
		printIssues("allow", issues)
	}
	return exit
}

// Gen is the policygen command.
func Gen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("policygen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "disable-powerful", "disable-all | disable-powerful | from-usage")
	browserName := fs.String("browser", "chromium", "chromium | firefox | safari")
	version := fs.Int("version", 127, "browser major version")
	used := fs.String("used", "", "comma-separated permissions the site uses (from-usage)")
	delegate := fs.String("delegate", "", "comma-separated perm=origin pairs needing delegation")
	allow := fs.String("allow", "", "emit a minimal allow attribute for these permissions instead")
	reportOnly := fs.Bool("report-only", false, "emit as Permissions-Policy-Report-Only (trial before enforcing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *allow != "" {
		attr, err := core.GenerateAllowAttr(splitList(*allow))
		if err != nil {
			fmt.Fprintln(stderr, "policygen:", err)
			return 1
		}
		fmt.Fprintf(stdout, "allow=%q\n", attr)
		return 0
	}
	in := core.GeneratorInput{Version: *version, DelegatedTo: map[string][]string{}}
	switch *mode {
	case "disable-all":
		in.Mode = core.DisableAll
	case "disable-powerful":
		in.Mode = core.DisablePowerful
	case "from-usage":
		in.Mode = core.FromUsage
		in.UsedPermissions = splitList(*used)
	default:
		fmt.Fprintf(stderr, "policygen: unknown mode %q\n", *mode)
		return 2
	}
	browser, ok := parseBrowser(*browserName)
	if !ok {
		fmt.Fprintf(stderr, "policygen: unknown browser %q\n", *browserName)
		return 2
	}
	in.Browser = browser
	for _, pair := range splitList(*delegate) {
		perm, org, ok := strings.Cut(pair, "=")
		if !ok {
			fmt.Fprintf(stderr, "policygen: bad -delegate entry %q (want perm=origin)\n", pair)
			return 2
		}
		in.DelegatedTo[perm] = append(in.DelegatedTo[perm], org)
		found := false
		for _, u := range in.UsedPermissions {
			if u == perm {
				found = true
			}
		}
		if !found {
			in.UsedPermissions = append(in.UsedPermissions, perm)
		}
	}
	if *reportOnly {
		value, err := core.GenerateReportOnly(in, "default")
		if err != nil {
			fmt.Fprintln(stderr, "policygen:", err)
			return 1
		}
		fmt.Fprintf(stdout, "Permissions-Policy-Report-Only: %s\n", value)
		return 0
	}
	header, err := core.Generate(in)
	if err != nil {
		fmt.Fprintln(stderr, "policygen:", err)
		return 1
	}
	fmt.Fprintf(stdout, "Permissions-Policy: %s\n", header)
	return 0
}

// Support is the permsupport command.
func Support(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("permsupport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chromium := fs.Int("chromium", 127, "Chromium version")
	firefox := fs.Int("firefox", 128, "Firefox version")
	safari := fs.Int("safari", 17, "Safari version")
	changes := fs.String("changes", "", "print support changes for this engine instead")
	from := fs.Int("from", 80, "change window start (exclusive)")
	to := fs.Int("to", 127, "change window end (inclusive)")
	identify := fs.String("identify", "", "comma-separated permission surface to fingerprint back to engine versions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *identify != "" {
		ranges := permissions.IdentifyFromSurface(splitList(*identify))
		if len(ranges) == 0 {
			fmt.Fprintln(stdout, "surface matches no known engine/version")
			return 1
		}
		for _, r := range ranges {
			fmt.Fprintln(stdout, r)
		}
		return 0
	}
	if *changes != "" {
		b, ok := parseBrowser(*changes)
		if !ok {
			fmt.Fprintf(stderr, "permsupport: unknown engine %q\n", *changes)
			return 2
		}
		fmt.Fprint(stdout, core.SupportChanges(b, *from, *to))
		return 0
	}
	fmt.Fprint(stdout, core.SupportTable(map[permissions.Browser]int{
		permissions.Chromium: *chromium,
		permissions.Firefox:  *firefox,
		permissions.Safari:   *safari,
	}))
	return 0
}

// Report is the permreport command. Analysis is the only thing it
// ever runs: whether the dataset comes from -in or from a sealed
// bundle (-from-bundle, verified first), no browser, network, or
// script interpreter is involved — the Web Execution Bundles replay
// model.
func Report(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("permreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "crawl.jsonl", "dataset path (JSONL from permcrawl)")
	fromBundle := fs.String("from-bundle", "", "analyze a sealed crawl bundle (directory or .tar.gz) instead of -in: verify its digest, then re-run analysis only")
	diffBundles := fs.Bool("diff-bundles", false, "longitudinal mode: diff two sealed bundles given as positional arguments into a drift report")
	key := fs.String("bundle-key", "", "HMAC key for verifying signed bundles")
	table := fs.String("table", "", "single table: 3,4,5,6,7,8,9,10,fig2,failures,directives")
	topN := fs.Int("n", 10, "rows per ranking table")
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	asHTML := fs.Bool("html", false, "emit the full report as HTML")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *diffBundles {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "permreport: -diff-bundles wants exactly two bundle paths (before after)")
			return 2
		}
		return diffBundlesCmd(fs.Arg(0), fs.Arg(1), *key, *asJSON, stdout, stderr)
	}
	// Fold each record as it decodes: memory follows the tables, not
	// the dataset, and a stream error prints no partial report.
	a := analysis.New(nil)
	src := *in
	if *fromBundle != "" {
		b, err := openVerified(*fromBundle, *key, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "permreport:", err)
			return 1
		}
		defer b.Close()
		src = *fromBundle
		if err := b.Records(a.Add); err != nil {
			fmt.Fprintln(stderr, "permreport:", err)
			return 1
		}
	} else if err := store.DecodeFile(*in, a.Add); err != nil {
		fmt.Fprintln(stderr, "permreport:", err)
		return 1
	}
	// An empty or fully-failed dataset renders clean zero rows, but a
	// report over nothing is almost never what the caller wanted: warn
	// (on stderr, keeping stdout byte-comparable) and exit nonzero.
	exit := 0
	if a.Websites() == 0 {
		fmt.Fprintf(stderr, "permreport: warning: %s has no analyzable records (%d records, all failed or partial); tables are zero rows\n",
			src, a.TotalRecords())
		exit = 1
	}
	switch {
	case *asHTML:
		fmt.Fprint(stdout, a.HTML(*topN))
		return exit
	case *asJSON:
		out, err := a.JSON(*topN)
		if err != nil {
			fmt.Fprintln(stderr, "permreport:", err)
			return 1
		}
		stdout.Write(out)
		fmt.Fprintln(stdout)
		return exit
	}
	if *table == "" {
		fmt.Fprintln(stdout, a.FullReport())
		return exit
	}
	t, ok := a.ReportData(*topN).Lookup(*table)
	if !ok {
		fmt.Fprintf(stderr, "permreport: unknown table %q\n", *table)
		return 2
	}
	fmt.Fprintln(stdout, t)
	return exit
}

// PoC is the localscheme-poc command.
func PoC(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("localscheme-poc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.String("top", "https://example.org", "victim top-level origin")
	attacker := fs.String("attacker", "https://attacker.example", "third-party origin receiving the hijacked delegation")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out, err := core.RenderSpecIssue(*top, *attacker)
	if err != nil {
		fmt.Fprintln(stderr, "localscheme-poc:", err)
		return 1
	}
	fmt.Fprint(stdout, out)
	return 0
}

func parseBrowser(name string) (permissions.Browser, bool) {
	switch strings.ToLower(name) {
	case "chromium", "chrome":
		return permissions.Chromium, true
	case "firefox":
		return permissions.Firefox, true
	case "safari":
		return permissions.Safari, true
	}
	return 0, false
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
