package trace

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"

	"perftrack/internal/metrics"
)

// The perftrack binary columnar format ("colbin"), version 1. It exists
// because the text codec — strconv, per-line allocation, field splitting —
// dominates cold ingest now that the analysis core is memory-bound. The
// binary layout is columnar so decode cost is bounded by memory bandwidth:
// integer columns are delta+zigzag varints (bursts are near-sorted by task
// and time, so deltas are tiny), call-stack strings are indices into a
// shared string table, and counter columns are raw little-endian IEEE-754
// float64 blocks that memcpy straight into burst vectors.
//
// Framing reuses the internal/store record discipline so every section is
// self-delimiting and self-checking:
//
//	file    = magic(8) section+
//	section = u32 bodyLen (LE) | u32 crc32c(body, Castagnoli) | body
//	body    = kind byte | payload
//
// Sections, in pinned order:
//
//	'M' metadata  app, label, ranks, tasksPerNode, machine, compiler,
//	              sorted params, counter column order, burst/block counts
//	'S' strtab    shared table for function and file strings
//	'B' block     one column group of up to colbinBlockSize bursts
//	'E' end       total burst count again — a file without its end marker
//	              is torn
//
// Within a 'B' block the columns appear in a pinned order (task, thread,
// startNS, durationNS, funcIdx, fileIdx, line, phase, then one raw float64
// column per counter in the declared counter order); every delta chain
// restarts at each block so blocks decode independently and in parallel.
// The field order and encodings are pinned by a golden hash test exactly
// like the canonical fingerprint format: changing the layout is a format
// version bump, never a silent drift.
//
// The text codec remains the differential reference: round-trip tests
// require text→binary→text and binary→Trace→binary bit-exactness across
// the seeded corpora, including fault-injected inputs.

// ColbinMagic is the 8-byte file signature. The CR/LF/NUL tail catches
// text-mode transfer mangling the same way the PNG signature does.
const ColbinMagic = "PTCB\x01\r\n\x00"

const (
	// colbinVersion is byte 5 of the magic; bump together.
	colbinVersion = 1
	// colbinBlockSize is the writer's bursts-per-block. Readers accept
	// any per-block count; this is a bandwidth/parallelism trade-off,
	// not a format constant.
	colbinBlockSize = 4096
	// colbinMaxBody guards the reader against absurd section lengths
	// produced by corruption, same rationale as the store scanner.
	colbinMaxBody = 1 << 30

	sectionMeta   = 'M'
	sectionStrtab = 'S'
	sectionBlock  = 'B'
	sectionEnd    = 'E'
)

var colbinCRC = crc32.MakeTable(crc32.Castagnoli)

// IsColbin reports whether data begins with the colbin magic. It is the
// sniff the service boundary uses to route request bodies: anything else
// falls through to the JSON/text paths.
func IsColbin(data []byte) bool {
	return len(data) >= len(ColbinMagic) && string(data[:len(ColbinMagic)]) == ColbinMagic
}

// zigzag maps signed to unsigned so small negatives stay small varints.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendStr appends a uvarint-length-prefixed string.
func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// beginSection reserves the 8-byte frame header and appends the kind
// byte, returning the extended buffer and the header offset.
func beginSection(buf []byte, kind byte) ([]byte, int) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	return append(buf, kind), start
}

// endSection fills the reserved frame header with the body length and
// CRC, exactly the store record discipline.
func endSection(buf []byte, start int) []byte {
	body := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, colbinCRC))
	return buf
}

// EncodeColbin serialises the trace in the binary columnar format and
// returns the encoded bytes. Burst order is preserved exactly as stored:
// colbin is a faithful codec, not a canonicalizer (the text writer's
// task/time sort happens there, not here).
func EncodeColbin(t *Trace) []byte {
	// Size hint: ~24 bytes per burst of varint columns plus the raw
	// counter columns dominates; headers are noise.
	est := len(ColbinMagic) + 256 + len(t.Bursts)*(24+8*int(metrics.NumCounters))
	buf := make([]byte, 0, est)
	buf = append(buf, ColbinMagic...)

	// 'M' metadata.
	var start int
	buf, start = beginSection(buf, sectionMeta)
	buf = appendStr(buf, t.Meta.App)
	buf = appendStr(buf, t.Meta.Label)
	buf = binary.AppendUvarint(buf, zigzag(int64(t.Meta.Ranks)))
	buf = binary.AppendUvarint(buf, zigzag(int64(t.Meta.TasksPerNode)))
	buf = appendStr(buf, t.Meta.Machine)
	buf = appendStr(buf, t.Meta.Compiler)
	keys := sortedParamKeys(t.Meta.Params)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendStr(buf, k)
		buf = appendStr(buf, t.Meta.Params[k])
	}
	buf = binary.AppendUvarint(buf, uint64(metrics.NumCounters))
	for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
		buf = appendStr(buf, c.String())
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Bursts)))
	buf = binary.AppendUvarint(buf, uint64(colbinBlockSize))
	buf = endSection(buf, start)

	// 'S' string table: distinct function/file strings in first-seen
	// order. First-seen keeps the encoding deterministic for a given
	// burst order without a sort.
	idx := make(map[string]uint64)
	var table []string
	intern := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		i := uint64(len(table))
		idx[s] = i
		table = append(table, s)
		return i
	}
	funcIdx := make([]uint64, len(t.Bursts))
	fileIdx := make([]uint64, len(t.Bursts))
	for i := range t.Bursts {
		funcIdx[i] = intern(t.Bursts[i].Stack.Function)
		fileIdx[i] = intern(t.Bursts[i].Stack.File)
	}
	buf, start = beginSection(buf, sectionStrtab)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, s := range table {
		buf = appendStr(buf, s)
	}
	buf = endSection(buf, start)

	// 'B' blocks. Every delta chain restarts per block so blocks decode
	// independently.
	for off := 0; off < len(t.Bursts); off += colbinBlockSize {
		n := len(t.Bursts) - off
		if n > colbinBlockSize {
			n = colbinBlockSize
		}
		bursts := t.Bursts[off : off+n]
		buf, start = beginSection(buf, sectionBlock)
		buf = binary.AppendUvarint(buf, uint64(n))
		buf = appendDeltaColumn(buf, n, func(i int) int64 { return int64(bursts[i].Task) })
		buf = appendDeltaColumn(buf, n, func(i int) int64 { return int64(bursts[i].Thread) })
		buf = appendDeltaColumn(buf, n, func(i int) int64 { return bursts[i].StartNS })
		buf = appendDeltaColumn(buf, n, func(i int) int64 { return bursts[i].DurationNS })
		buf = appendDeltaColumn(buf, n, func(i int) int64 { return int64(funcIdx[off+i]) })
		buf = appendDeltaColumn(buf, n, func(i int) int64 { return int64(fileIdx[off+i]) })
		buf = appendDeltaColumn(buf, n, func(i int) int64 { return int64(bursts[i].Stack.Line) })
		buf = appendDeltaColumn(buf, n, func(i int) int64 { return int64(bursts[i].Phase) })
		for c := metrics.Counter(0); c < metrics.NumCounters; c++ {
			for i := 0; i < n; i++ {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(bursts[i].Counters[c]))
			}
		}
		buf = endSection(buf, start)
	}

	// 'E' end marker: its presence is what distinguishes a complete file
	// from a torn one; the repeated burst count cross-checks the blocks.
	buf, start = beginSection(buf, sectionEnd)
	buf = binary.AppendUvarint(buf, uint64(len(t.Bursts)))
	buf = endSection(buf, start)
	return buf
}

// appendDeltaColumn appends n values as a delta+zigzag varint chain
// starting from zero.
func appendDeltaColumn(buf []byte, n int, get func(int) int64) []byte {
	prev := int64(0)
	for i := 0; i < n; i++ {
		v := get(i)
		buf = binary.AppendUvarint(buf, zigzag(v-prev))
		prev = v
	}
	return buf
}

// WriteColbinFile serialises the trace to the named file in the binary
// columnar format.
func WriteColbinFile(path string, t *Trace) error {
	return os.WriteFile(path, EncodeColbin(t), 0o666)
}

// sortedParamKeys returns the parameter keys in sorted order (the same
// canonical order the text codec and the fingerprint use).
func sortedParamKeys(params map[string]string) []string {
	if len(params) == 0 {
		return nil
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	// Insertion sort: param maps are tiny and this avoids pulling sort
	// into the hot encode path for a handful of keys.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
