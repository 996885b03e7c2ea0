package queue

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Journal file layout: a queue directory holds numbered segment files
// (wal-00000001.log, wal-00000002.log, ...) of framed records. Each
// frame is
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][JSON payload]
//
// written with a single Write and fsynced before the enclosing queue
// operation returns, so a frame is either fully durable or a torn tail.
// Replay reads segments in order; every segment but the last must be
// fully valid (mid-file corruption is a hard ErrCorrupt — committed
// history must not silently vanish), while the last segment tolerates a
// torn final frame by truncating it away, which is exactly the state a
// crash mid-append leaves behind.
//
// Rotation doubles as compaction: when the active segment outgrows
// MaxSegmentBytes, a new segment is started with one "snap" record per
// retained job (the full job state), and every older segment is
// deleted. A crash between writing the new segment and deleting the old
// ones is safe because snap records replay as upserts.

const (
	segPrefix = "wal-"
	segSuffix = ".log"
	// maxRecordBytes bounds one frame; a length header beyond it is
	// corruption, not a huge record.
	maxRecordBytes = 4 << 20
	frameHeader    = 8
)

// record is the journal's one serialized transition. Type selects which
// fields are meaningful.
type record struct {
	Seq  uint64 `json:"seq"`
	Type string `json:"type"` // submit, snap, lease, complete, fail, recover, dead
	ID   string `json:"id"`

	// submit/snap fields. Payload is opaque bytes (base64 in the JSON
	// encoding), so callers may journal anything, not just valid JSON.
	Key         string `json:"key,omitempty"`
	Payload     []byte `json:"payload,omitempty"`
	MaxAttempts int    `json:"max_attempts,omitempty"`
	EnqueuedNS  int64  `json:"enqueued_ns,omitempty"`
	State       string `json:"state,omitempty"` // snap only

	// lease/fail/recover/dead fields.
	Lease     uint64 `json:"lease,omitempty"`
	ExpiryNS  int64  `json:"expiry_ns,omitempty"`
	Attempts  int    `json:"attempts,omitempty"`
	Error     string `json:"error,omitempty"`
	NextRetNS int64  `json:"next_retry_ns,omitempty"`

	// complete/snap field: the settling worker's provenance note, opaque
	// bytes like Payload. Journals written before results moved out of
	// the queue carry a "result" field instead, which decoding ignores.
	Provenance []byte `json:"provenance,omitempty"`
}

// journal owns the active segment file of a queue directory.
type journal struct {
	dir     string
	maxSeg  int64
	f       *os.File
	segIdx  int
	size    int64
	lastSeq uint64
}

// Segments lists the journal segment files of a queue directory in
// replay order. Exported for the fault-injection harness and smoke
// scripts, which corrupt or truncate segments to prove the recovery
// contract.
//
//relint:ignore ctxthread -- one-shot directory listing for the fault harness and smoke scripts, never on the serving path
func Segments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("queue: %w", err)
	}
	var segs []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			segs = append(segs, filepath.Join(dir, name))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

func segIndex(path string) int {
	base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), segPrefix), segSuffix)
	n, err := strconv.Atoi(base)
	if err != nil {
		return 0
	}
	return n
}

func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix))
}

// openJournal replays every segment of dir and opens the last one for
// appending (creating segment 1 in an empty dir). It returns the
// replayed records in order.
func openJournal(dir string, maxSeg int64) (*journal, []record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("queue: journal dir: %w", err)
	}
	segs, err := Segments(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &journal{dir: dir, maxSeg: maxSeg, segIdx: 1}
	var recs []record
	for i, seg := range segs {
		last := i == len(segs)-1
		segRecs, goodLen, rerr := readSegment(seg, last)
		if rerr != nil {
			return nil, nil, rerr
		}
		if last {
			// A torn tail is truncated away so the next append starts on
			// a clean frame boundary.
			if info, serr := os.Stat(seg); serr == nil && info.Size() > goodLen {
				if terr := os.Truncate(seg, goodLen); terr != nil {
					return nil, nil, fmt.Errorf("queue: truncating torn tail of %s: %w", seg, terr)
				}
			}
			j.segIdx = segIndex(seg)
			j.size = goodLen
		}
		recs = append(recs, segRecs...)
	}
	for _, r := range recs {
		if r.Seq > j.lastSeq {
			j.lastSeq = r.Seq
		}
	}
	f, err := os.OpenFile(segPath(dir, j.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("queue: opening segment: %w", err)
	}
	j.f = f
	return j, recs, nil
}

// readSegment decodes one segment. In tolerant mode (the last segment)
// a torn final frame ends the scan at goodLen; in strict mode any
// malformed frame is ErrCorrupt. A frame with a bad CRC that is not the
// file's final frame is corruption in both modes.
func readSegment(path string, tolerant bool) (recs []record, goodLen int64, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("queue: %w", err)
	}
	off := 0
	for off < len(raw) {
		if len(raw)-off < frameHeader {
			if tolerant {
				return recs, int64(off), nil // torn header
			}
			return nil, 0, fmt.Errorf("queue: %s: %w: truncated frame header at offset %d", path, ErrCorrupt, off)
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		sum := binary.LittleEndian.Uint32(raw[off+4:])
		if n > maxRecordBytes {
			return nil, 0, fmt.Errorf("queue: %s: %w: frame length %d at offset %d exceeds limit", path, ErrCorrupt, n, off)
		}
		if len(raw)-off-frameHeader < n {
			if tolerant {
				return recs, int64(off), nil // torn payload
			}
			return nil, 0, fmt.Errorf("queue: %s: %w: truncated frame payload at offset %d", path, ErrCorrupt, off)
		}
		payload := raw[off+frameHeader : off+frameHeader+n]
		atEOF := off+frameHeader+n == len(raw)
		if crc32.ChecksumIEEE(payload) != sum {
			if tolerant && atEOF {
				return recs, int64(off), nil // torn final frame
			}
			return nil, 0, fmt.Errorf("queue: %s: %w: CRC mismatch at offset %d", path, ErrCorrupt, off)
		}
		var r record
		if uerr := json.Unmarshal(payload, &r); uerr != nil {
			if tolerant && atEOF {
				return recs, int64(off), nil
			}
			return nil, 0, fmt.Errorf("queue: %s: %w: undecodable record at offset %d: %v", path, ErrCorrupt, off, uerr)
		}
		recs = append(recs, r)
		off += frameHeader + n
	}
	return recs, int64(off), nil
}

// append frames, writes and fsyncs one record. The caller holds the
// queue lock and has already assigned r.Seq.
func (j *journal) append(r record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("queue: encoding journal record: %w", err)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("queue: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("queue: journal sync: %w", err)
	}
	j.size += int64(len(frame))
	return nil
}

// shouldCompact reports whether the active segment has outgrown its
// budget.
func (j *journal) shouldCompact() bool {
	return j.maxSeg > 0 && j.size > j.maxSeg
}

// compact rotates to a fresh segment seeded with the given snapshot
// records, then deletes every older segment.
//
//relint:ignore journalfirst -- segment rotation, not a replayed state transition: the handle/index/size swap selects the new segment the snapshot appends then write to, and a failed append still poisons the queue via the appendLocked caller
func (j *journal) compact(snaps []record) error {
	newIdx := j.segIdx + 1
	f, err := os.OpenFile(segPath(j.dir, newIdx), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("queue: compaction segment: %w", err)
	}
	old := j.f
	oldIdx := j.segIdx
	j.f, j.segIdx, j.size = f, newIdx, 0
	for _, r := range snaps {
		if err := j.append(r); err != nil {
			return err
		}
	}
	old.Close()
	for idx := oldIdx; idx >= 1; idx-- {
		path := segPath(j.dir, idx)
		if _, serr := os.Stat(path); serr != nil {
			break
		}
		if rerr := os.Remove(path); rerr != nil {
			return fmt.Errorf("queue: removing compacted segment: %w", rerr)
		}
	}
	return nil
}

func (j *journal) close() error {
	if j == nil || j.f == nil {
		return nil
	}
	return j.f.Close()
}
