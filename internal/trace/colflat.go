package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"perftrack/internal/metrics"
)

// Flat is a colbin trace decoded as a struct of columns instead of a
// burst slice: the shape the downstream flat pipeline consumes. Counter
// values land in one strided []float64 — burst i's counters occupy
// Counters[i*stride : i*stride+stride] — so PointsInto can evaluate a
// metric space straight into the flat point layout cluster.RunFlat takes,
// with no per-burst structs anywhere on the path.
type Flat struct {
	Meta Metadata
	// N is the burst count; every column has length N.
	N            int
	Task, Thread []int32
	StartNS      []int64
	DurationNS   []int64
	// FuncIdx/FileIdx index Strings, the decoded string table.
	FuncIdx, FileIdx []int32
	Line, Phase      []int32
	Strings          []string
	// Counters is the strided counter matrix; Stride is its row width
	// (always metrics.NumCounters after a successful decode).
	Counters []float64
	Stride   int
}

// DecodeColbinFlat parses a binary columnar trace strictly into the flat
// column layout. Blocks decode in parallel like the burst-slice path.
func DecodeColbinFlat(data []byte) (*Flat, error) {
	meta, strtab, blocks, total, err := scanColbinStrict(data)
	if err != nil {
		return nil, err
	}
	f := &Flat{
		Meta: meta.meta, N: total,
		Task: make([]int32, total), Thread: make([]int32, total),
		StartNS: make([]int64, total), DurationNS: make([]int64, total),
		FuncIdx: make([]int32, total), FileIdx: make([]int32, total),
		Line: make([]int32, total), Phase: make([]int32, total),
		Strings:  strtab,
		Counters: make([]float64, total*int(metrics.NumCounters)),
		Stride:   int(metrics.NumCounters),
	}
	bad := runColBlocks(len(blocks), func(i int) error {
		b := blocks[i]
		if crc32.Checksum(b.frame, colbinCRC) != b.crc {
			return fmt.Errorf("block crc mismatch")
		}
		return decodeColBlockFlat(b.body, f, b.off, b.n, meta.order)
	})
	for i, err := range bad {
		if err != nil {
			return nil, fmt.Errorf("trace: colbin section %d: %w", blocks[i].section, err)
		}
	}
	return f, nil
}

// scanColbinStrict is the strict section walk shared by the flat decoder:
// it locates blocks and parses the header sections, failing loudly on any
// framing or CRC problem.
func scanColbinStrict(data []byte) (*colMeta, []string, []colBlock, int, error) {
	if !IsColbin(data) {
		return nil, nil, nil, 0, errNotColbin
	}
	var (
		meta    *colMeta
		strtab  []string
		blocks  []colBlock
		sawEnd  bool
		section int
		total   int
	)
	off := len(ColbinMagic)
	for off < len(data) && !sawEnd {
		section++
		if off+8 > len(data) {
			return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: torn section header", section)
		}
		bodyLen := int(binary.LittleEndian.Uint32(data[off:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		if bodyLen <= 0 || bodyLen > colbinMaxBody {
			return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: implausible length %d", section, bodyLen)
		}
		if off+8+bodyLen > len(data) {
			return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: torn section body", section)
		}
		frame := data[off+8 : off+8+bodyLen]
		off += 8 + bodyLen
		kind, payload := frame[0], frame[1:]
		switch kind {
		case sectionBlock:
			if meta == nil || strtab == nil {
				return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: burst block before metadata/string table", section)
			}
			n, k := binary.Uvarint(payload)
			if k <= 0 || !plausibleBlockCount(n, len(payload), len(meta.order), total) {
				return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: implausible block burst count", section)
			}
			blocks = append(blocks, colBlock{
				section: section, body: payload[k:], crc: wantCRC, frame: frame,
				n: int(n), off: total,
			})
			total += int(n)
		default:
			if crc32.Checksum(frame, colbinCRC) != wantCRC {
				return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: section crc mismatch", section)
			}
			switch kind {
			case sectionMeta:
				if meta != nil {
					return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: duplicate metadata section", section)
				}
				m, err := parseColMeta(payload)
				if err != nil {
					return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: %w", section, err)
				}
				meta = m
			case sectionStrtab:
				if meta == nil || strtab != nil {
					return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: misplaced string table", section)
				}
				st, err := parseColStrtab(payload)
				if err != nil {
					return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: %w", section, err)
				}
				strtab = st
			case sectionEnd:
				n, k := binary.Uvarint(payload)
				if k <= 0 || n != uint64(total) {
					return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: end marker disagrees with blocks", section)
				}
				sawEnd = true
			default:
				return nil, nil, nil, 0, fmt.Errorf("trace: colbin section %d: unknown section kind %q", section, kind)
			}
		}
	}
	if meta == nil {
		return nil, nil, nil, 0, fmt.Errorf("trace: colbin file has no metadata section")
	}
	if strtab == nil && total > 0 {
		return nil, nil, nil, 0, fmt.Errorf("trace: colbin file has burst blocks but no string table")
	}
	if !sawEnd {
		return nil, nil, nil, 0, fmt.Errorf("trace: colbin file is torn: missing end marker")
	}
	if off < len(data) {
		return nil, nil, nil, 0, fmt.Errorf("trace: %d trailing bytes after colbin end marker", len(data)-off)
	}
	if total != meta.total {
		return nil, nil, nil, 0, fmt.Errorf("trace: colbin metadata counts %d bursts, blocks carry %d", meta.total, total)
	}
	return meta, strtab, blocks, total, nil
}

// decodeColBlockFlat decodes one CRC-verified block payload into the flat
// columns starting at burst offset base. Same pinned column order as
// decodeColBlock.
func decodeColBlockFlat(p []byte, f *Flat, base, n int, order []metrics.Counter) error {
	off := 0
	col32 := func(dst []int32) error {
		prev := int64(0)
		for i := 0; i < n; i++ {
			u, k := binary.Uvarint(p[off:])
			if k <= 0 {
				return fmt.Errorf("malformed varint column")
			}
			off += k
			prev += unzigzag(u)
			dst[base+i] = int32(prev)
		}
		return nil
	}
	col64 := func(dst []int64) error {
		prev := int64(0)
		for i := 0; i < n; i++ {
			u, k := binary.Uvarint(p[off:])
			if k <= 0 {
				return fmt.Errorf("malformed varint column")
			}
			off += k
			prev += unzigzag(u)
			dst[base+i] = prev
		}
		return nil
	}
	if err := col32(f.Task); err != nil {
		return err
	}
	if err := col32(f.Thread); err != nil {
		return err
	}
	if err := col64(f.StartNS); err != nil {
		return err
	}
	if err := col64(f.DurationNS); err != nil {
		return err
	}
	if err := col32(f.FuncIdx); err != nil {
		return err
	}
	if err := col32(f.FileIdx); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if fi, gi := f.FuncIdx[base+i], f.FileIdx[base+i]; fi < 0 || int(fi) >= len(f.Strings) ||
			gi < 0 || int(gi) >= len(f.Strings) {
			return fmt.Errorf("string index outside table of %d", len(f.Strings))
		}
	}
	if err := col32(f.Line); err != nil {
		return err
	}
	if err := col32(f.Phase); err != nil {
		return err
	}
	if len(p)-off != n*8*len(order) {
		return fmt.Errorf("counter columns carry %d bytes, want %d", len(p)-off, n*8*len(order))
	}
	stride := f.Stride
	for _, c := range order {
		row := base*stride + int(c)
		for i := 0; i < n; i++ {
			f.Counters[row] = math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
			row += stride
			off += 8
		}
	}
	return nil
}

// Sample returns burst i in the minimal form metrics evaluate on.
func (f *Flat) Sample(i int) metrics.Sample {
	var cv metrics.CounterVector
	copy(cv[:], f.Counters[i*f.Stride:(i+1)*f.Stride])
	return metrics.Sample{DurationNS: float64(f.DurationNS[i]), Counters: cv}
}

// Burst materialises burst i as a struct, for callers that need one.
func (f *Flat) Burst(i int) Burst {
	b := Burst{
		Task: int(f.Task[i]), Thread: int(f.Thread[i]),
		StartNS: f.StartNS[i], DurationNS: f.DurationNS[i],
		Stack: CallstackRef{
			Function: f.Strings[f.FuncIdx[i]],
			File:     f.Strings[f.FileIdx[i]],
			Line:     int(f.Line[i]),
		},
		Phase: int(f.Phase[i]),
	}
	copy(b.Counters[:], f.Counters[i*f.Stride:(i+1)*f.Stride])
	return b
}

// Trace materialises the whole flat trace as a *Trace for the parts of
// the pipeline that still consume burst slices.
func (f *Flat) Trace() *Trace {
	t := &Trace{Meta: f.Meta, Bursts: make([]Burst, f.N)}
	for i := range t.Bursts {
		t.Bursts[i] = f.Burst(i)
	}
	return t
}

// PointsInto evaluates the metric space over every burst, writing the
// strided point layout cluster.RunFlat consumes into dst (len must be
// N*len(ms); pass nil to allocate). Row i holds burst i's coordinates.
func (f *Flat) PointsInto(dst []float64, ms []metrics.Metric) []float64 {
	if dst == nil {
		dst = make([]float64, f.N*len(ms))
	}
	dims := len(ms)
	for i := 0; i < f.N; i++ {
		metrics.SpaceInto(dst[i*dims:(i+1)*dims], ms, f.Sample(i))
	}
	return dst
}
