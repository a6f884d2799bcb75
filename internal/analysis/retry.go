package analysis

import "permodyssey/internal/store"

// RetryRow summarizes retried visits that first failed with one class.
type RetryRow struct {
	// FirstFailure is how the first attempt failed.
	FirstFailure store.FailureClass `json:"first_failure"`
	// Sites is how many sites first failed this way and were retried.
	Sites int `json:"sites"`
	// Recovered is how many of them ultimately produced an analyzable
	// record (clean or partial); RecoveredPartial the partial subset.
	Recovered        int `json:"recovered"`
	RecoveredPartial int `json:"recovered_partial"`
	// Stuck is Sites - Recovered: every retry failed too.
	Stuck int `json:"stuck"`
	// RetriesSpent is the total extra attempts spent on these sites.
	RetriesSpent int `json:"retries_spent"`
}

// RetryStats is the retry-aware failure analysis: which transient
// failure classes the retry policy actually converts into data, and at
// what cost. The paper's single-shot crawl counts ~89k sites as
// timeout/ephemeral losses (§4); this table shows how much of that loss
// a retrying crawler claws back per class.
type RetryStats struct {
	Rows []RetryRow `json:"rows"`
	// RetriedSites is the number of sites that needed at least one
	// retry; TotalRetries the total extra attempts across the dataset
	// (equals the crawler's Stats.Retries for a fresh, uninterrupted
	// run).
	RetriedSites int `json:"retried_sites"`
	TotalRetries int `json:"total_retries"`
	// Recovered is how many retried sites ended analyzable.
	Recovered int `json:"recovered"`
}

// addRetry folds a record that recorded a retry into the row of its
// first-attempt failure class.
func (a *Analysis) addRetry(rec store.SiteRecord) {
	row := a.retries[rec.FirstAttemptFailure]
	if row == nil {
		row = &RetryRow{FirstFailure: rec.FirstAttemptFailure}
		a.retries[rec.FirstAttemptFailure] = row
	}
	row.Sites++
	row.RetriesSpent += rec.Retries
	if rec.OK() {
		row.Recovered++
		if rec.Partial {
			row.RecoveredPartial++
		}
	} else {
		row.Stuck++
	}
}

// retryStats ranks the retry rows and sums them.
func (a *Analysis) retryStats() RetryStats {
	var s RetryStats
	for _, row := range a.retries {
		s.Rows = append(s.Rows, *row)
		s.RetriedSites += row.Sites
		s.TotalRetries += row.RetriesSpent
		s.Recovered += row.Recovered
	}
	s.Rows = rank(s.Rows, func(r RetryRow) (string, int) { return string(r.FirstFailure), r.Sites }, 0)
	return s
}

// retryTable renders the first-attempt-vs-recovered breakdown.
func retryTable(s RetryStats) Table {
	t := Table{
		Title:   "Retry outcomes by first-attempt failure class",
		Headers: []string{"First failure", "Sites", "Recovered", "Partial", "Stuck", "Retries spent"},
	}
	for _, r := range s.Rows {
		t.Rows = append(t.Rows, []string{
			string(r.FirstFailure), d(r.Sites), d(r.Recovered),
			d(r.RecoveredPartial), d(r.Stuck), d(r.RetriesSpent),
		})
	}
	t.Rows = append(t.Rows, []string{
		"total", d(s.RetriedSites), d(s.Recovered), "", d(s.RetriedSites - s.Recovered), d(s.TotalRetries),
	})
	return t
}
