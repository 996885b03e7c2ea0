package engine

import "errors"

// Sentinels for the retiming job engine. Call sites wrap them with
// fmt.Errorf("engine: %w: ...", Err...) so the HTTP layer's status
// mapping, the durable pump's retry/dead classification and external
// callers all branch with errors.Is instead of string matching.
var (
	// ErrClosed: the engine (or a layer above it) has shut down; the
	// submission is not accepted and will never run.
	ErrClosed = errors.New("engine closed")
	// ErrBadJob: the job itself cannot run or cannot be
	// content-addressed (no circuit/library, unknown approach, options
	// the cache restore path cannot re-derive).
	ErrBadJob = errors.New("invalid job")
	// ErrBadRequest: an HTTP submission is malformed at the protocol
	// level (missing or conflicting inputs). Maps to 400.
	ErrBadRequest = errors.New("invalid request")
	// ErrBadConfig: a constructor was handed an unusable configuration
	// (missing engine/queue/durable layer).
	ErrBadConfig = errors.New("invalid engine config")
	// ErrCacheInvalid: a disk cache entry failed validation — key or
	// approach mismatch, claims diverging from re-derived results, references
	// to unknown nodes/cells. The cache layer treats it as poison and
	// recomputes; it never silently trusts such an entry.
	ErrCacheInvalid = errors.New("cache entry invalid")
)
