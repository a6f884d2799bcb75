package cli

import (
	"bytes"
	"context"
	"testing"

	"permodyssey/internal/permissions"
)

// permissionSurface returns the Chromium 127 supported-permission list
// for fingerprint-identification tests.
func permissionSurface() []string {
	return permissions.SupportedPermissions(permissions.Chromium, 127)
}

// crawlTo runs the in-process Crawl command over a small deterministic
// population (no chaos, generous timeout, no retries) with extra flags
// appended.
func crawlTo(t *testing.T, out string, extra ...string) {
	t.Helper()
	args := []string{"-sites", "40", "-seed", "21", "-workers", "8", "-timeout", "2s", "-retries", "0", "-out", out}
	args = append(args, extra...)
	var stdout, stderr bytes.Buffer
	if code := Crawl(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("crawl %v: code=%d stderr=%q", extra, code, stderr.String())
	}
}
