package html

import (
	"context"

	"permodyssey/internal/memo"
)

// NewDocMemo returns a document memo keyed by content digest, holding
// at most maxBytes of summed charge (<= 0 = unbounded). Each Doc is
// charged the length of its one string buffer: Extract copies its
// strings out of the source, so that buffer, not the source, is what a
// retained Doc keeps alive.
func NewDocMemo(maxBytes int64) *memo.Memo[memo.Key, Doc] {
	return memo.New[memo.Key, Doc](maxBytes)
}

// ExtractShared returns Extract(src) through docs, extracting on first
// sight, so a body fetched for N frames across a crawl — the
// Zipf-popular third-party widget documents — is tokenized once. A nil
// docs extracts on every call.
func ExtractShared(ctx context.Context, docs *memo.Memo[memo.Key, Doc], src string) (Doc, error) {
	if docs == nil {
		return Extract(src), nil
	}
	return docs.Get(ctx, memo.Sum(src), func() (Doc, int64, error) {
		d := extractAliased(src)
		return d, int64(d.own()), nil
	})
}
