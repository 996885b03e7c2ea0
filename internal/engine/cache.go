package engine

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"relatch/internal/cert"
	"relatch/internal/core"
	"relatch/internal/flow"
	"relatch/internal/netlist"
	"relatch/internal/obs"
	"relatch/internal/rgraph"
	"relatch/internal/vlib"
)

// entrySchemaVersion is bumped whenever the on-disk entry layout changes;
// entries with another version are treated as misses, not errors.
const entrySchemaVersion = 2

// errStaleEntry marks an entry written under another schema version:
// absent for this build, not poisoned.
var errStaleEntry = errors.New("cache entry from another schema version")

// defaultCapacity is the in-memory LRU size when the caller passes ≤ 0.
const defaultCapacity = 256

// claimEpsilon tolerates float formatting noise when comparing cached
// area claims against re-derived values.
const claimEpsilon = 1e-9

// CacheStats counts cache traffic. Hits are in-memory; DiskHits are
// restores from the on-disk layer (which also populate memory). Poisoned
// counts entries that failed validation and were discarded. PeerHits are
// claim blobs pulled from a cluster peer that survived revalidation;
// PeerRejected counts peer blobs that failed it — the trust gate firing.
type CacheStats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	DiskHits     int64 `json:"disk_hits"`
	Stores       int64 `json:"stores"`
	Evictions    int64 `json:"evictions"`
	Poisoned     int64 `json:"poisoned"`
	PeerHits     int64 `json:"peer_hits"`
	PeerRejected int64 `json:"peer_rejected"`
}

// PeerFetcher pulls the raw claim blob for a key from a cluster peer.
// A (nil, nil) return is a clean miss. The cache treats whatever comes
// back as untrusted input: it is decoded, restored onto a fresh clone
// and re-certified exactly like a local disk entry before being served
// or stored, so the fetcher needs no integrity guarantees of its own.
type PeerFetcher func(ctx context.Context, key string) ([]byte, error)

// entry is the serializable claim set of a completed job — positions and
// classifications, never derived numbers the restore path can recompute
// and cross-check. A tampered entry therefore cannot smuggle in a wrong
// result: the restore re-evaluates the placement against ground-truth
// timing and re-certifies before anything is served.
type entry struct {
	SchemaVersion int    `json:"schema_version"`
	Key           string `json:"key"`
	Approach      string `json:"approach"`
	Circuit       string `json:"circuit"`

	AtInput []int    `json:"at_input"`
	OnEdge  [][2]int `json:"on_edge"`

	EDMasters []int `json:"ed_masters"`
	Reclaimed []int `json:"reclaimed,omitempty"`
	// Resized lists gate cells the virtual-library incremental compile
	// strengthened, as (node ID, cell name) pairs applied on restore.
	Resized []resize `json:"resized,omitempty"`

	Slaves  int     `json:"slaves"`
	Masters int     `json:"masters"`
	ED      int     `json:"ed"`
	SeqArea float64 `json:"seq_area"`

	Objective       float64        `json:"objective,omitempty"`
	Solver          string         `json:"solver,omitempty"`
	Fallback        bool           `json:"fallback,omitempty"`
	FallbackReason  string         `json:"fallback_reason,omitempty"`
	SolverCertified bool           `json:"solver_certified,omitempty"`
	Classes         map[string]int `json:"classes,omitempty"`

	Relaxed int `json:"relaxed,omitempty"`
	Swaps   int `json:"swaps,omitempty"`
	Upsized int `json:"upsized,omitempty"`
}

type resize struct {
	ID   int    `json:"id"`
	Cell string `json:"cell"`
}

// Cache is the content-addressed result cache: an in-memory LRU over
// live outcomes, with an optional on-disk layer of JSON claim blobs.
// Disk entries are restored onto a fresh clone of the submitted circuit,
// re-evaluated and re-certified before being served — a poisoned file is
// detected, counted, deleted and recomputed, never trusted.
type Cache struct {
	dir string
	cap int

	mu    sync.Mutex
	ll    *list.List            // guarded by mu (front = most recent; values are *lruItem)
	items map[Key]*list.Element // guarded by mu
	stats CacheStats            // guarded by mu
	peer  PeerFetcher           // guarded by mu (set once during serve wiring)
}

type lruItem struct {
	key Key
	out *Outcome
}

// NewCache builds a cache with the given in-memory capacity (≤ 0 means
// the default) and optional disk directory ("" disables the disk layer).
func NewCache(capacity int, dir string) (*Cache, error) {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: cache dir: %w", err)
		}
	}
	return &Cache{
		dir:   dir,
		cap:   capacity,
		ll:    list.New(),
		items: make(map[Key]*list.Element),
	}, nil
}

// Dir returns the disk layer directory ("" when memory-only).
func (c *Cache) Dir() string { return c.dir }

// SetPeer installs the cluster peer tier. Called once while the serve
// stack is wired up; a nil fetcher leaves the cache two-layered.
func (c *Cache) SetPeer(fetch PeerFetcher) {
	c.mu.Lock()
	c.peer = fetch
	c.mu.Unlock()
}

func (c *Cache) peerFetcher() PeerFetcher {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peer
}

// Len returns the number of entries currently resident in the memory
// layer. The serving collector samples it as a gauge.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// EntryPath returns the disk file a key maps to ("" when memory-only).
// Exported for the fault-injection harness, which corrupts entries in
// place to prove poisoned blobs are recomputed rather than served.
func (c *Cache) EntryPath(key Key) string {
	if c.dir == "" {
		return ""
	}
	return filepath.Join(c.dir, key.String()+".json")
}

// Get serves a cached outcome for the key, trying memory, then disk,
// then the peer tier. The boolean reports whether a validated outcome
// was produced; every failure mode (absent, stale schema, poisoned)
// degrades to a miss.
func (c *Cache) Get(ctx context.Context, key Key, job Job) (*Outcome, bool) {
	sp, ctx := obsCacheSpan(ctx, key)
	defer sp.End()

	if out, ok := c.Memory(key); ok {
		sp.Add("hit", 1)
		return out, true
	}
	if c.dir != "" {
		out, err := c.Probe(ctx, key, job)
		switch {
		case err == nil:
			c.mu.Lock()
			c.stats.DiskHits++
			c.insertLocked(key, out)
			c.mu.Unlock()
			sp.Add("disk_hit", 1)
			hit := *out
			hit.CacheHit = true
			hit.CacheLayer = "disk"
			return &hit, true
		case ctx.Err() != nil:
			// A restore cut short by a disconnect or shutdown proves
			// nothing about the entry: keep the file, report a miss.
			c.miss(sp)
			return nil, false
		case errors.Is(err, errStaleEntry):
			// The recomputed result's Put overwrites it.
		case !os.IsNotExist(err):
			// A present-but-invalid entry is poisoned: drop the file so
			// the recomputed result can take its place.
			c.mu.Lock()
			c.stats.Poisoned++
			c.mu.Unlock()
			sp.Add("poisoned", 1)
			os.Remove(c.EntryPath(key))
		}
	}
	if out, ok := c.peerGet(ctx, sp, key, job); ok {
		return out, true
	}
	c.miss(sp)
	return nil, false
}

// Memory serves a key from the in-memory layer alone. It needs no job:
// a resident outcome already passed its gate when it was solved or
// restored, so a caller holding only the key can skip rebuilding the
// job. A miss here is not counted; Get counts it if every layer misses.
func (c *Cache) Memory(key Key) (*Outcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	hit := *el.Value.(*lruItem).out
	hit.CacheHit = true
	hit.CacheLayer = "memory"
	return &hit, true
}

// peerGet tries the cluster peer tier. A fetched blob passes the exact
// revalidation gate a local disk entry does — decode, restore onto a
// fresh clone, re-derive, re-certify — before it is served or persisted,
// so a poisoned or malicious peer can never inject an uncertified
// result; at worst its blob is rejected, counted, and the key falls
// through to local compute.
func (c *Cache) peerGet(ctx context.Context, sp *obs.Span, key Key, job Job) (*Outcome, bool) {
	fetch := c.peerFetcher()
	if fetch == nil {
		return nil, false
	}
	raw, err := fetch(ctx, key.String())
	if err != nil || raw == nil {
		return nil, false
	}
	e, err := decodeEntry(raw, key, job)
	var out *Outcome
	if err == nil {
		out, err = c.restore(ctx, key, job, e)
	}
	if err != nil {
		// As on disk, a cancelled restore or a blob from another schema
		// version is no verdict on the peer.
		if ctx.Err() == nil && !errors.Is(err, errStaleEntry) {
			c.mu.Lock()
			c.stats.PeerRejected++
			c.mu.Unlock()
			sp.Add("peer_rejected", 1)
		}
		return nil, false
	}
	c.mu.Lock()
	c.stats.PeerHits++
	c.insertLocked(key, out)
	c.mu.Unlock()
	sp.Add("peer_hit", 1)
	// The blob proved its claims; keep it so the next restart (and our
	// own peers) can serve it from disk.
	c.writeRaw(key, raw)
	hit := *out
	hit.CacheHit = true
	hit.CacheLayer = "peer"
	return &hit, true
}

func (c *Cache) miss(sp *obs.Span) {
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	sp.Add("miss", 1)
}

// obsCacheSpan opens the engine.cache span all cache traffic reports on.
func obsCacheSpan(ctx context.Context, key Key) (*obs.Span, context.Context) {
	//relint:ignore obsspan -- the span is returned to the caller, which owns the deferred End
	sp, ctx := obs.StartSpan(ctx, "engine.cache")
	sp.Attr("key", key.Short())
	return sp, ctx
}

// Probe reads, restores and validates the disk entry for a key without
// touching the memory layer or the miss/poison accounting. It returns
// the validation failure verbatim, which is what the fault harness (and
// any operator debugging a cache dir) wants to see.
func (c *Cache) Probe(ctx context.Context, key Key, job Job) (*Outcome, error) {
	if c.dir == "" {
		return nil, fmt.Errorf("engine: cache has no disk layer: %w", os.ErrNotExist)
	}
	raw, err := os.ReadFile(c.EntryPath(key))
	if err != nil {
		return nil, err
	}
	e, err := decodeEntry(raw, key, job)
	if err != nil {
		return nil, err
	}
	return c.restore(ctx, key, job, e)
}

// decodeEntry parses a raw claim blob and checks its header against the
// key and job it is supposed to answer. Shared by the disk and peer
// tiers; the caller still restores (re-evaluates, re-certifies) the
// claims before trusting them.
func decodeEntry(raw []byte, key Key, job Job) (*entry, error) {
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return nil, fmt.Errorf("engine: cache entry %s: %w", key.Short(), err)
	}
	if e.SchemaVersion != entrySchemaVersion {
		return nil, fmt.Errorf("engine: %w: entry %s: schema %d, want %d",
			errStaleEntry, key.Short(), e.SchemaVersion, entrySchemaVersion)
	}
	if e.Key != key.String() {
		return nil, fmt.Errorf("engine: %w: entry %s: claims key %s", ErrCacheInvalid, key.Short(), e.Key)
	}
	if e.Approach != string(job.Approach) {
		return nil, fmt.Errorf("engine: %w: entry %s: approach %q, want %q",
			ErrCacheInvalid, key.Short(), e.Approach, job.Approach)
	}
	return &e, nil
}

// RawEntry returns the on-disk claim blob for a key — the payload of
// the peer cache protocol. Only the disk layer is served: memory
// outcomes hold live circuit state that cannot be reduced to claims
// without the submitting job, and peers revalidate whatever they get
// anyway, so a disk read is both sufficient and the cheapest honest
// answer. Missing entries report os.ErrNotExist.
func (c *Cache) RawEntry(ctx context.Context, key Key) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: cache entry %s: %w", key.Short(), err)
	}
	if c.dir == "" {
		return nil, fmt.Errorf("engine: cache has no disk layer: %w", os.ErrNotExist)
	}
	return os.ReadFile(c.EntryPath(key))
}

// Put stores a freshly computed outcome in both layers. Outcomes that
// were themselves cache hits are not re-stored.
func (c *Cache) Put(ctx context.Context, key Key, job Job, out *Outcome) {
	if out == nil || out.CacheHit {
		return
	}
	sp, _ := obsCacheSpan(ctx, key)
	defer sp.End()

	c.mu.Lock()
	c.stats.Stores++
	evicted := c.insertLocked(key, out)
	c.mu.Unlock()
	sp.Add("stored", 1)
	if evicted > 0 {
		sp.Add("evicted", int64(evicted))
	}

	if c.dir == "" {
		return
	}
	e, err := encodeEntry(key, job, out)
	if err != nil {
		return // unencodable outcomes simply stay memory-only
	}
	raw, err := json.MarshalIndent(e, "", " ")
	if err != nil {
		return
	}
	c.writeRaw(key, raw)
}

// writeRaw atomically publishes an entry blob to the disk layer: a
// crashed writer must never leave a torn entry that a later Get would
// flag as poisoned. Each write goes through its own temp file, since
// writers of one key race (a lead's Put against a peer-tier or
// degraded-mode restore), and two writers sharing one temp path could
// interleave and publish a blob neither wrote. A failed write leaves the
// entry as it was: the cache degrades to memory-only for that key.
func (c *Cache) writeRaw(key Key, raw []byte) {
	if c.dir == "" {
		return
	}
	f, err := os.CreateTemp(c.dir, key.String()+".*.tmp")
	if err != nil {
		return
	}
	_, err = f.Write(raw)
	if err == nil {
		// CreateTemp makes the file 0600; entries keep the mode a plain
		// write gives them.
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), c.EntryPath(key))
	}
	if err != nil {
		os.Remove(f.Name())
	}
}

// insertLocked adds an outcome to the LRU (c.mu held) and returns how
// many entries were evicted to make room.
func (c *Cache) insertLocked(key Key, out *Outcome) int {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruItem).out = out
		return 0
	}
	c.items[key] = c.ll.PushFront(&lruItem{key: key, out: out})
	evicted := 0
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruItem).key)
		c.stats.Evictions++
		evicted++
	}
	return evicted
}

// encodeEntry reduces an outcome to its serializable claims.
func encodeEntry(key Key, job Job, out *Outcome) (*entry, error) {
	r := out.Core
	if r == nil {
		return nil, fmt.Errorf("engine: %w: outcome for %s has no result", ErrCacheInvalid, key.Short())
	}
	e := &entry{
		SchemaVersion:   entrySchemaVersion,
		Key:             key.String(),
		Approach:        string(job.Approach),
		Circuit:         job.Circuit.Name,
		EDMasters:       sortedTrueKeys(r.EDMasters),
		Reclaimed:       sortedTrueKeys(r.Reclaimed),
		Slaves:          r.SlaveCount,
		Masters:         r.MasterCount,
		ED:              r.EDCount,
		SeqArea:         r.SeqArea,
		Objective:       r.Objective,
		Solver:          r.Solver.String(),
		Fallback:        r.SolverFallback,
		FallbackReason:  r.FallbackReason,
		SolverCertified: r.SolverCertified,
		Relaxed:         r.Relaxed,
		Swaps:           r.Swaps,
		Upsized:         r.Upsized,
	}
	e.AtInput, e.OnEdge = encodePlacement(r.Placement)
	if len(r.Classes) > 0 {
		e.Classes = make(map[string]int, len(r.Classes))
		for k, v := range r.Classes {
			e.Classes[strconv.Itoa(int(k))] = v
		}
	}
	for _, n := range r.Circuit.Nodes {
		orig := job.Circuit.Nodes[n.ID]
		if n.Cell != nil && orig.Cell != nil && n.Cell.Name != orig.Cell.Name {
			e.Resized = append(e.Resized, resize{ID: n.ID, Cell: n.Cell.Name})
		}
	}
	return e, nil
}

// restore rebuilds a live outcome from an entry's claims on a fresh
// clone, cross-checks the claims against the re-derived result and
// certifies it. Only the re-derivation differs by family: core results
// are re-evaluated against ground-truth timing, virtual-library results
// re-apply the recorded resizes and take the recorded ED set, which the
// certifier then audits.
func (c *Cache) restore(ctx context.Context, key Key, job Job, e *entry) (*Outcome, error) {
	start := time.Now()
	p, err := decodePlacement(job.Circuit, e)
	if err != nil {
		return nil, err
	}
	clone := job.Circuit.Clone()
	var res *core.Result
	if job.Approach.IsVLib() {
		res, err = restoreVLib(clone, job, e, p)
	} else {
		res, err = core.EvaluateCtx(ctx, clone, job.Options, job.Approach.CoreApproach(), p)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: cache entry %s: %w", key.Short(), err)
	}
	if res.SlaveCount != e.Slaves || res.MasterCount != e.Masters || res.EDCount != e.ED {
		return nil, fmt.Errorf("engine: %w: entry %s: claims %d/%d/%d latches, re-derived %d/%d/%d",
			ErrCacheInvalid, key.Short(), e.Slaves, e.Masters, e.ED, res.SlaveCount, res.MasterCount, res.EDCount)
	}
	if math.Abs(res.SeqArea-e.SeqArea) > claimEpsilon {
		return nil, fmt.Errorf("engine: %w: entry %s: claims seq area %g, re-derived %g",
			ErrCacheInvalid, key.Short(), e.SeqArea, res.SeqArea)
	}
	if !sameIDSet(res.EDMasters, e.EDMasters) {
		return nil, fmt.Errorf("engine: %w: entry %s: ED-master claim diverges from re-derived set",
			ErrCacheInvalid, key.Short())
	}
	res.Reclaimed = idSet(e.Reclaimed)
	res.Objective = e.Objective
	if m, merr := flow.ParseMethod(e.Solver); merr == nil {
		res.Solver = m
	}
	res.SolverFallback = e.Fallback
	res.FallbackReason = e.FallbackReason
	res.SolverCertified = e.SolverCertified
	res.Relaxed, res.Swaps, res.Upsized = e.Relaxed, e.Swaps, e.Upsized
	if len(e.Classes) > 0 {
		res.Classes = make(map[rgraph.TargetClass]int, len(e.Classes))
		for k, v := range e.Classes {
			n, perr := strconv.Atoi(k)
			if perr != nil {
				return nil, fmt.Errorf("engine: %w: entry %s: bad class %q", ErrCacheInvalid, key.Short(), k)
			}
			res.Classes[rgraph.TargetClass(n)] = v
		}
	}
	if err := core.Certify(ctx, res, cert.Snapshot(job.Circuit)); err != nil {
		return nil, fmt.Errorf("engine: cache entry %s: %w", key.Short(), err)
	}
	return &Outcome{Key: key, Approach: job.Approach, Core: res, Runtime: time.Since(start)}, nil
}

// restoreVLib re-applies a virtual-library entry's recorded resizes to
// the clone and rebuilds the result around the entry's placement and
// ED set.
func restoreVLib(clone *netlist.Circuit, job Job, e *entry, p *netlist.Placement) (*core.Result, error) {
	for _, rs := range e.Resized {
		if rs.ID < 0 || rs.ID >= len(clone.Nodes) {
			return nil, fmt.Errorf("%w: resize of unknown node %d", ErrCacheInvalid, rs.ID)
		}
		n := clone.Nodes[rs.ID]
		cl, ok := clone.Lib.ByName(rs.Cell)
		if !ok {
			return nil, fmt.Errorf("%w: resize to unknown cell %q", ErrCacheInvalid, rs.Cell)
		}
		if n.Cell == nil {
			return nil, fmt.Errorf("%w: resize of non-gate node %d", ErrCacheInvalid, rs.ID)
		}
		n.Cell = cl
	}
	if err := p.Validate(clone); err != nil {
		return nil, err
	}
	return vlib.NewResult(clone, job.vlibOptions(), job.Approach.Variant(), p, idSet(e.EDMasters)), nil
}

// encodePlacement flattens a placement into sorted ID/edge lists.
func encodePlacement(p *netlist.Placement) (atInput []int, onEdge [][2]int) {
	atInput = sortedTrueKeys(p.AtInput)
	for e, on := range p.OnEdge {
		if on {
			onEdge = append(onEdge, [2]int{e.From, e.To})
		}
	}
	sort.Slice(onEdge, func(i, j int) bool {
		if onEdge[i][0] != onEdge[j][0] {
			return onEdge[i][0] < onEdge[j][0]
		}
		return onEdge[i][1] < onEdge[j][1]
	})
	return atInput, onEdge
}

// decodePlacement rebuilds a placement, bounds-checking IDs against the
// submitted circuit so a corrupt entry fails loudly instead of panicking
// downstream.
func decodePlacement(c *netlist.Circuit, e *entry) (*netlist.Placement, error) {
	p := netlist.NewPlacement()
	for _, id := range e.AtInput {
		if id < 0 || id >= len(c.Nodes) {
			return nil, fmt.Errorf("engine: %w: latch at unknown input %d", ErrCacheInvalid, id)
		}
		p.AtInput[id] = true
	}
	for _, fe := range e.OnEdge {
		if fe[0] < 0 || fe[0] >= len(c.Nodes) || fe[1] < 0 || fe[1] >= len(c.Nodes) {
			return nil, fmt.Errorf("engine: %w: latch on unknown edge %d->%d", ErrCacheInvalid, fe[0], fe[1])
		}
		p.OnEdge[netlist.Edge{From: fe[0], To: fe[1]}] = true
	}
	return p, nil
}

// sortedTrueKeys lists the true keys of a set map, sorted.
func sortedTrueKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// idSet inverts sortedTrueKeys.
func idSet(ids []int) map[int]bool {
	m := make(map[int]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

// sameIDSet compares a set map against a sorted ID list.
func sameIDSet(m map[int]bool, ids []int) bool {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	if n != len(ids) {
		return false
	}
	for _, id := range ids {
		if !m[id] {
			return false
		}
	}
	return true
}
