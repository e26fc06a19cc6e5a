package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// On-disk record format, version 1. Each record is self-delimiting and
// self-checking so a reader can walk a segment sequentially with no
// external index and detect exactly where a torn write begins:
//
//	u32  bodyLen   (little-endian; length of body, excludes this header)
//	u32  crc32c    (Castagnoli, over body)
//	body:
//	  u8   version (1)
//	  u64  seq      (store-wide append sequence; higher supersedes)
//	  i64  unixNano (submission wall-clock time)
//	  u32  keyLen    | key     (hex content hash of the inputs)
//	  u32  seriesLen | series  (named run series, may be empty)
//	  u32  labelLen  | label   (human-readable run label, may be empty)
//	  u32  payloadLen| payload (the byte-deterministic result JSON)
//
// A record whose header cannot be fully read, whose body is shorter than
// bodyLen, or whose CRC mismatches is a torn tail (if nothing valid
// follows) or corruption; scanning stops there.

const (
	recordVersion = 1
	headerSize    = 8
	// maxBodyBytes guards the scanner against absurd lengths produced by
	// corruption: a 4 GiB allocation from a flipped bit would be a worse
	// failure mode than dropping the tail.
	maxBodyBytes = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one stored result.
type Record struct {
	// Key is the hex content hash addressing the result (the job's
	// cache key: canonical trace hashes + pipeline configuration).
	Key string
	// Series optionally names the run series this result belongs to
	// ("nightly-bt", "scaling-2026q3", ...): the unit the trajectory
	// engine chains over.
	Series string
	// Label is a human-readable run label ("build-4711", "2026-08-05").
	Label string
	// UnixNano is the submission time.
	UnixNano int64
	// Payload is the result document (opaque to the store).
	Payload []byte
}

// Meta is the index entry for a live record: everything but the payload.
type Meta struct {
	Key      string `json:"key"`
	Series   string `json:"series,omitempty"`
	Label    string `json:"label,omitempty"`
	UnixNano int64  `json:"unixNano"`
	Seq      uint64 `json:"seq"`
	Size     int    `json:"size"`
}

var (
	// errTorn reports an incomplete record at the end of a segment.
	errTorn = errors.New("store: torn record")
	// errCorrupt reports a record that is complete but fails its checks.
	errCorrupt = errors.New("store: corrupt record")
)

// encodeRecord appends the framed encoding of (rec, seq) to buf and
// returns the extended slice.
func encodeRecord(buf []byte, rec Record, seq uint64) []byte {
	bodyLen := 1 + 8 + 8 +
		4 + len(rec.Key) + 4 + len(rec.Series) + 4 + len(rec.Label) +
		4 + len(rec.Payload)
	start := len(buf)
	buf = append(buf, make([]byte, headerSize)...)
	buf = append(buf, recordVersion)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.UnixNano))
	for _, s := range []string{rec.Key, rec.Series, rec.Label} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Payload)))
	buf = append(buf, rec.Payload...)

	body := buf[start+headerSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(bodyLen))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, crcTable))
	return buf
}

// decodeBody parses a CRC-verified record body.
func decodeBody(body []byte) (Record, uint64, error) {
	var rec Record
	if len(body) < 1+8+8 {
		return rec, 0, errCorrupt
	}
	if body[0] != recordVersion {
		return rec, 0, fmt.Errorf("%w: unknown version %d", errCorrupt, body[0])
	}
	seq := binary.LittleEndian.Uint64(body[1:])
	rec.UnixNano = int64(binary.LittleEndian.Uint64(body[9:]))
	rest := body[17:]
	next := func() (string, bool) {
		if len(rest) < 4 {
			return "", false
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint32(len(rest)) < n {
			return "", false
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s, true
	}
	var ok bool
	if rec.Key, ok = next(); !ok {
		return rec, 0, errCorrupt
	}
	if rec.Series, ok = next(); !ok {
		return rec, 0, errCorrupt
	}
	if rec.Label, ok = next(); !ok {
		return rec, 0, errCorrupt
	}
	if len(rest) < 4 {
		return rec, 0, errCorrupt
	}
	n := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint32(len(rest)) != n {
		return rec, 0, errCorrupt
	}
	rec.Payload = append([]byte(nil), rest...)
	return rec, seq, nil
}

// readRecord reads one framed record from r at the current position.
// It returns errTorn when the stream ends mid-record (including a clean
// EOF at a record boundary, signalled as io.EOF) and errCorrupt when the
// frame is complete but invalid.
func readRecord(r io.Reader) (Record, uint64, int64, error) {
	var hdr [headerSize]byte
	switch _, err := io.ReadFull(r, hdr[:]); err {
	case nil:
	case io.EOF:
		return Record{}, 0, 0, io.EOF // clean end of segment
	default:
		return Record{}, 0, 0, errTorn
	}
	bodyLen := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if bodyLen == 0 || bodyLen > maxBodyBytes {
		return Record{}, 0, 0, errCorrupt
	}
	body, err := readBody(r, int(bodyLen))
	if err != nil {
		return Record{}, 0, 0, errTorn
	}
	if crc32.Checksum(body, crcTable) != crc {
		return Record{}, 0, 0, errCorrupt
	}
	rec, seq, err := decodeBody(body)
	if err != nil {
		return Record{}, 0, 0, err
	}
	return rec, seq, int64(headerSize) + int64(bodyLen), nil
}

// growChunk is the first buffer readBody allocates for a body of unknown
// provenance; the buffer doubles from there as bytes arrive.
const growChunk = 64 << 10

// readBody reads the n-byte record body from r. When r is a section of a
// file (a segment scan, a Get), the bytes left are known: the body is
// allocated once at its exact size, or not at all when it cannot fit.
// Otherwise — a network stream — the buffer grows as bytes arrive, so a
// corrupt or hostile length prefix costs memory in proportion to the
// bytes actually sent, not to the up to 1 GiB it claims.
func readBody(r io.Reader, n int) ([]byte, error) {
	if sr, ok := r.(*io.SectionReader); ok {
		pos, _ := sr.Seek(0, io.SeekCurrent)
		if int64(n) > sr.Size()-pos {
			return nil, io.ErrUnexpectedEOF
		}
		body := make([]byte, n)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	body := make([]byte, 0, min(n, growChunk))
	for len(body) < n {
		if len(body) == cap(body) {
			body = append(make([]byte, 0, min(2*cap(body), n)), body...)
		}
		m, err := r.Read(body[len(body):cap(body)])
		body = body[:len(body)+m]
		if err != nil && len(body) < n {
			return nil, err
		}
	}
	return body, nil
}
