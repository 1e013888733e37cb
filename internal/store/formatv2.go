package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/index"
)

// FormatVersion 2 is a flat, offset-based binary layout whose on-disk
// representation is the in-memory representation: a deduplicated string
// table, fixed-width little-endian document/revision/erratum/item
// records, the inverted index's postings lists as raw ordinal arrays,
// and the canonical per-erratum JSON response fragments. A reader
// slices one ReadFile (or mmap) buffer — strings materialize as
// zero-copy views over the file bytes, postings load without an
// annotation walk, and the serving layer stitches responses straight
// from the fragment region — so cold `errserve -db` start is dominated
// by the record walk instead of a corpus-sized JSON parse.
//
// File layout (all integers little-endian):
//
//	header   32 B  magic "REMBERR2", u32 version=2, u32 sectionCount,
//	               u64 fileSize, u64 CRC-32C (Castagnoli, in the low
//	               32 bits) over everything after
//	               the header
//	directory      sectionCount × (u32 id, u64 off, u64 len)
//	sections       byte ranges named by the directory
//
// Every access is bounds-checked eagerly by OpenV2: a truncated or
// bit-flipped file fails with a checksum or bounds error before any
// accessor runs. FormatVersion 1 stays readable forever; Open and
// OpenBytes sniff the magic and route to the right decoder.

// FormatVersion2 identifies the flat binary serialization layout.
const FormatVersion2 = 2

const v2Magic = "REMBERR2"

// Section identifiers of the v2 directory.
const (
	secStrings  = 1  // deduplicated string bytes; refs are (u32 off, u32 len)
	secDocs     = 2  // document records, 72 B each
	secRevs     = 3  // revision records, 24 B each
	secStrRefs  = 4  // string-reference arrays (withdrawn/added/MSR lists)
	secErrata   = 5  // erratum records, 108 B each
	secItems    = 6  // annotation item records, 16 B each
	secOrds     = 7  // postings ordinals, u32 each
	secPostings = 8  // postings directory + per-entry trigger counts
	secFrags    = 9  // canonical JSON fragment bytes
	secFragIdx  = 10 // per-ordinal fragment index, 16 B each
)

const (
	v2HeaderSize = 32
	v2DirEntSize = 20
	strRefSize   = 8
	docRecSize   = 72
	revRecSize   = 24
	errRecSize   = 108
	itemRecSize  = 16
	fragIdxSize  = 16
)

// v2NoDate is the sentinel for a zero time.Time in i64 unix-seconds
// date fields.
const v2NoDate = math.MinInt64

// crcTable is CRC-32C (Castagnoli): hardware-accelerated on amd64 and
// arm64, so whole-file verification at open stays a small fraction of
// the cold-start budget while still catching every single-bit flip.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// V2Options selects the optional sections of an encoded v2 file.
type V2Options struct {
	// Postings embeds the inverted index's postings lists so a reader
	// reconstructs the query index without re-walking annotations.
	Postings bool
	// Fragments embeds the canonical per-erratum JSON response
	// fragments the serving layer stitches responses from.
	Fragments bool
}

// IsV2 reports whether data carries the FormatVersion 2 magic.
func IsV2(data []byte) bool {
	return len(data) >= len(v2Magic) && string(data[:len(v2Magic)]) == v2Magic
}

// ---------------------------------------------------------------------------
// Encoder

type v2Encoder struct {
	strings []byte
	strMap  map[string]strRef

	docs   []byte
	revs   []byte
	refs   []byte
	errs   []byte
	items  []byte
	nRevs  uint32
	nRefs  uint32
	nErr   uint32
	nItems uint32
}

type strRef struct{ off, ln uint32 }

func (e *v2Encoder) addString(s string) strRef {
	if s == "" {
		return strRef{}
	}
	if r, ok := e.strMap[s]; ok {
		return r
	}
	r := strRef{off: uint32(len(e.strings)), ln: uint32(len(s))}
	e.strings = append(e.strings, s...)
	e.strMap[s] = r
	return r
}

func (e *v2Encoder) addStrList(list []string) (off, n uint32) {
	off = e.nRefs
	for _, s := range list {
		r := e.addString(s)
		e.refs = apU32(e.refs, r.off)
		e.refs = apU32(e.refs, r.ln)
		e.nRefs++
	}
	return off, uint32(len(list))
}

func (e *v2Encoder) addItems(items []core.Item) (off, n uint32) {
	off = e.nItems
	for _, it := range items {
		cat := e.addString(it.Category)
		con := e.addString(it.Concrete)
		e.items = apU32(e.items, cat.off)
		e.items = apU32(e.items, cat.ln)
		e.items = apU32(e.items, con.off)
		e.items = apU32(e.items, con.ln)
		e.nItems++
	}
	return off, uint32(len(items))
}

func apU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func apU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func apRef(b []byte, r strRef) []byte { return apU32(apU32(b, r.off), r.ln) }

func dateUnix(t time.Time) uint64 {
	if t.IsZero() {
		return uint64(uint64(math.MaxUint64>>1) + 1) // two's-complement MinInt64
	}
	return uint64(t.Unix())
}

// EncodeV2 serializes the database in FormatVersion 2 into one heap
// buffer. Encoding is deterministic: documents are emitted in
// Documents() order, strings are deduplicated in first-occurrence
// order, and postings maps are emitted in canonical (sorted) key order,
// so repeated encodings of the same database are byte-identical — and
// identical to what EncodeV2To streams.
func EncodeV2(db *core.Database, opts V2Options) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeV2To(&buf, db, opts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeV2To streams the FormatVersion 2 serialization of db to w
// without ever concatenating the sections into a second corpus-sized
// buffer: the whole-file checksum is computed incrementally over the
// directory and section bytes (CRC over a concatenation is the chained
// CRC over its pieces), then header, directory and sections are written
// in file order. Output is byte-identical to EncodeV2.
func EncodeV2To(w io.Writer, db *core.Database, opts V2Options) error {
	e := &v2Encoder{strings: []byte{0}, strMap: make(map[string]strRef)}

	docs := db.Documents()
	var errata []*core.Erratum
	for _, d := range docs {
		key := e.addString(d.Key)
		label := e.addString(d.Label)
		reference := e.addString(d.Reference)

		revOff := e.nRevs
		for _, r := range d.Revisions {
			aOff, aN := e.addStrList(r.Added)
			e.revs = apU32(e.revs, uint32(int32(r.Number)))
			e.revs = apU32(e.revs, 0)
			e.revs = apU64(e.revs, dateUnix(r.Date))
			e.revs = apU32(e.revs, aOff)
			e.revs = apU32(e.revs, aN)
			e.nRevs++
		}
		wOff, wN := e.addStrList(d.Withdrawn)

		errOff := e.nErr
		for _, er := range d.Errata {
			errata = append(errata, er)
			id := e.addString(er.ID)
			title := e.addString(er.Title)
			desc := e.addString(er.Description)
			impl := e.addString(er.Implication)
			work := e.addString(er.Workaround)
			status := e.addString(er.Status)
			ckey := e.addString(er.Key)
			tOff, tN := e.addItems(er.Ann.Triggers)
			cOff, cN := e.addItems(er.Ann.Contexts)
			fOff, fN := e.addItems(er.Ann.Effects)
			mOff, mN := e.addStrList(er.Ann.MSRs)
			var flags byte
			if er.Ann.ComplexConditions {
				flags |= 1
			}
			if er.Ann.TrivialTrigger {
				flags |= 2
			}
			if er.Ann.SimulationOnly {
				flags |= 4
			}
			b := e.errs
			b = apRef(b, id)
			b = apRef(b, title)
			b = apRef(b, desc)
			b = apRef(b, impl)
			b = apRef(b, work)
			b = apRef(b, status)
			b = apRef(b, ckey)
			b = apU32(b, uint32(int32(er.Seq)))
			b = append(b, byte(er.WorkaroundCat), byte(er.Fix), flags, 0)
			b = apU32(b, uint32(int32(er.AddedIn)))
			b = apU64(b, dateUnix(er.Disclosed))
			b = apU32(b, tOff)
			b = apU32(b, tN)
			b = apU32(b, cOff)
			b = apU32(b, cN)
			b = apU32(b, fOff)
			b = apU32(b, fN)
			b = apU32(b, mOff)
			b = apU32(b, mN)
			e.errs = b
			e.nErr++
		}

		b := e.docs
		b = apRef(b, key)
		b = apRef(b, label)
		b = apRef(b, reference)
		b = apU32(b, uint32(d.Vendor))
		b = apU32(b, uint32(int32(d.Order)))
		b = apU32(b, uint32(int32(d.GenIndex)))
		b = apU32(b, 0)
		b = apU64(b, dateUnix(d.Released))
		b = apU32(b, revOff)
		b = apU32(b, uint32(len(d.Revisions)))
		b = apU32(b, errOff)
		b = apU32(b, e.nErr-errOff)
		b = apU32(b, wOff)
		b = apU32(b, wN)
		e.docs = b
	}

	// The optional encoders run before the section table is assembled:
	// encodePostings interns its map keys (class names, categories) into
	// the shared string table, so e.strings must not be captured yet.
	var ords, post, frags, fragIdx []byte
	var err error
	if opts.Postings {
		if ords, post, err = encodePostings(db, e); err != nil {
			return err
		}
	}
	if opts.Fragments {
		if frags, fragIdx, err = encodeFragments(db, errata); err != nil {
			return err
		}
	}

	sections := []struct {
		id   uint32
		data []byte
	}{
		{secStrings, e.strings},
		{secDocs, e.docs},
		{secRevs, e.revs},
		{secStrRefs, e.refs},
		{secErrata, e.errs},
		{secItems, e.items},
	}
	if opts.Postings {
		sections = append(sections,
			struct {
				id   uint32
				data []byte
			}{secOrds, ords},
			struct {
				id   uint32
				data []byte
			}{secPostings, post})
	}
	if opts.Fragments {
		sections = append(sections,
			struct {
				id   uint32
				data []byte
			}{secFrags, frags},
			struct {
				id   uint32
				data []byte
			}{secFragIdx, fragIdx})
	}

	for _, s := range sections {
		if uint64(len(s.data)) > math.MaxUint32 {
			return fmt.Errorf("store: v2: section %d exceeds 4 GiB", s.id)
		}
	}

	total := v2HeaderSize + v2DirEntSize*len(sections)
	offs := make([]uint64, len(sections))
	for i, s := range sections {
		offs[i] = uint64(total)
		total += len(s.data)
	}

	dir := make([]byte, 0, v2DirEntSize*len(sections))
	for i, s := range sections {
		dir = apU32(dir, s.id)
		dir = apU64(dir, offs[i])
		dir = apU64(dir, uint64(len(s.data)))
	}

	// The header carries the checksum of everything after itself, so it
	// is computed before a single post-header byte is written.
	crc := crc32.Update(0, crcTable, dir)
	for _, s := range sections {
		crc = crc32.Update(crc, crcTable, s.data)
	}

	hdr := make([]byte, 0, v2HeaderSize)
	hdr = append(hdr, v2Magic...)
	hdr = apU32(hdr, FormatVersion2)
	hdr = apU32(hdr, uint32(len(sections)))
	hdr = apU64(hdr, uint64(total))
	hdr = apU64(hdr, uint64(crc))

	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(dir); err != nil {
		return err
	}
	for _, s := range sections {
		if _, err := w.Write(s.data); err != nil {
			return err
		}
	}
	return nil
}

// encodePostings flattens the inverted index over db into the ORDS and
// POSTINGS sections. Postings layout: u32 nErr, u32 reserved; the
// unique/complex/simulation-only lists as (u32 ordOff, u32 ordCount)
// into ORDS; three enum maps (vendor, workaround, fix) as u32 count +
// count × (u32 value, u32 ordOff, u32 ordCount) in canonical value
// order; six string maps (doc, category, trigger-category, class, key,
// MSR) as u32 count + count × (u32 strOff, u32 strLen, u32 ordOff,
// u32 ordCount) in sorted key order; then nErr raw u32 per-entry
// trigger counts.
func encodePostings(db *core.Database, e *v2Encoder) (ords, post []byte, err error) {
	p := index.Build(db).Parts()

	var nOrds uint32
	addList := func(l []int) (uint32, uint32) {
		off := nOrds
		for _, o := range l {
			ords = apU32(ords, uint32(o))
			nOrds++
		}
		return off, uint32(len(l))
	}
	emitList := func(l []int) {
		off, n := addList(l)
		post = apU32(post, off)
		post = apU32(post, n)
	}

	post = apU32(post, e.nErr)
	post = apU32(post, 0)
	emitList(p.UniqueOrds)
	emitList(p.ComplexSet)
	emitList(p.SimOnlySet)

	emitEnumMap := func(vals []uint32, lists [][]int) {
		post = apU32(post, uint32(len(vals)))
		for i, v := range vals {
			post = apU32(post, v)
			emitList(lists[i])
		}
	}
	var vvals []uint32
	var vlists [][]int
	for _, v := range core.Vendors {
		if l, ok := p.ByVendor[v]; ok {
			vvals = append(vvals, uint32(v))
			vlists = append(vlists, l)
		}
	}
	emitEnumMap(vvals, vlists)
	vvals, vlists = nil, nil
	for _, w := range core.WorkaroundCategories {
		if l, ok := p.ByWorkaround[w]; ok {
			vvals = append(vvals, uint32(w))
			vlists = append(vlists, l)
		}
	}
	emitEnumMap(vvals, vlists)
	vvals, vlists = nil, nil
	for _, f := range core.FixStatuses {
		if l, ok := p.ByFix[f]; ok {
			vvals = append(vvals, uint32(f))
			vlists = append(vlists, l)
		}
	}
	emitEnumMap(vvals, vlists)

	emitStrMap := func(m map[string][]int) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		post = apU32(post, uint32(len(keys)))
		for _, k := range keys {
			r := e.addString(k)
			post = apU32(post, r.off)
			post = apU32(post, r.ln)
			emitList(m[k])
		}
	}
	emitStrMap(p.ByDoc)
	emitStrMap(p.ByCategory)
	emitStrMap(p.ByTriggerCat)
	emitStrMap(p.ByClass)
	emitStrMap(p.ByKey)
	emitStrMap(p.ByMSR)

	for _, c := range p.TriggerCount {
		post = apU32(post, uint32(c))
	}
	return ords, post, nil
}

// encodeFragments precomputes the canonical JSON fragments of every
// entry and lays them out as FRAGS (raw bytes) plus FRAGIDX (per
// ordinal: u32 detailOff, u32 detailLen, u32 summaryOff, u32
// summaryLen).
func encodeFragments(db *core.Database, errata []*core.Erratum) (frags, fragIdx []byte, err error) {
	fr, err := BuildFragments(db)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range errata {
		d := fr.details[e]
		s := fr.summaries[e]
		fragIdx = apU32(fragIdx, uint32(len(frags)))
		fragIdx = apU32(fragIdx, uint32(len(d)))
		frags = append(frags, d...)
		fragIdx = apU32(fragIdx, uint32(len(frags)))
		fragIdx = apU32(fragIdx, uint32(len(s)))
		frags = append(frags, s...)
	}
	return frags, fragIdx, nil
}

// ---------------------------------------------------------------------------
// Decoder

// StoreV2 is an opened FormatVersion 2 database. All sections are
// bounds-checked at Open time; accessors afterwards are infallible
// slices into the file buffer — which may be heap bytes (OpenV2) or an
// mmap'ed file (Open with a .v2 path), in which case everything
// materialized from the store aliases the mapping and is only valid
// while the region holds a reference. The caller must not mutate data
// while the store (or anything materialized from it) is in use.
type StoreV2 struct {
	data    []byte
	region  *Region
	closed  atomic.Bool
	decodes atomic.Int64 // erratum records decoded, for lazy-boot tests
	strings []byte
	docRecs []byte
	revRecs []byte
	refRecs []byte
	errRecs []byte
	itRecs  []byte
	nDocs   int
	nRevs   int
	nRefs   int
	nErr    int
	nItems  int

	ords  []byte // u32 ordinal array, nOrds entries
	nOrds int
	post  *v2Postings

	frags   []byte
	fragIdx []byte

	dbOnce sync.Once
	dbDone atomic.Bool
	db     *core.Database
	dbErr  error

	frOnce sync.Once
	fr     *Fragments
	frErr  error
}

type v2list struct{ off, n uint32 }

type v2kv struct {
	key  strRef
	list v2list
}

type v2ev struct {
	val  uint32
	list v2list
}

type v2Postings struct {
	unique, complexSet, simOnlySet v2list
	vendors, workarounds, fixes    []v2ev
	// strMaps holds, in order: byDoc, byCategory, byTriggerCat,
	// byClass, byKey, byMSR.
	strMaps [6][]v2kv
	trigOff int // byte offset of the trigger-count array in the section
	raw     []byte
}

func gu32(b []byte, off int) uint32 { return binary.LittleEndian.Uint32(b[off:]) }
func gu64(b []byte, off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }

// OpenV2 validates a FormatVersion 2 buffer and returns the opened
// store. Validation is exhaustive: magic, version, declared file size,
// whole-file checksum, directory bounds, record-size alignment, every
// string reference, every record range, enum values, document ordering
// and errata coverage, postings bounds/order and fragment index bounds.
// After OpenV2 succeeds no accessor can read out of bounds.
func OpenV2(data []byte) (*StoreV2, error) {
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("store: v2: file too short (%d bytes)", len(data))
	}
	if !IsV2(data) {
		return nil, fmt.Errorf("store: v2: bad magic")
	}
	if v := gu32(data, 8); v != FormatVersion2 {
		return nil, fmt.Errorf("store: v2: unsupported format version %d", v)
	}
	nSec := int(gu32(data, 12))
	if size := gu64(data, 16); size != uint64(len(data)) {
		return nil, fmt.Errorf("store: v2: declared size %d, actual %d", size, len(data))
	}
	dirEnd := v2HeaderSize + nSec*v2DirEntSize
	if nSec > 64 || dirEnd > len(data) {
		return nil, fmt.Errorf("store: v2: directory (%d sections) exceeds file", nSec)
	}
	if want, got := gu64(data, 24), uint64(crc32.Checksum(data[v2HeaderSize:], crcTable)); want != got {
		return nil, fmt.Errorf("store: v2: checksum mismatch (file %016x, computed %016x)", want, got)
	}

	// Sections must tile the file exactly: contiguous from the end of
	// the directory through EOF, in directory order. The section count
	// sits outside the checksummed range, so without this a corrupted
	// count could silently drop trailing sections or misread the
	// directory.
	secs := make(map[uint32][]byte, nSec)
	next := uint64(dirEnd)
	for i := 0; i < nSec; i++ {
		base := v2HeaderSize + i*v2DirEntSize
		id := gu32(data, base)
		off := gu64(data, base+4)
		ln := gu64(data, base+12)
		if off != next || off+ln < off || off+ln > uint64(len(data)) {
			return nil, fmt.Errorf("store: v2: section %d range [%d,%d) breaks the file tiling at %d", id, off, off+ln, next)
		}
		next = off + ln
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("store: v2: duplicate section %d", id)
		}
		secs[id] = data[off : off+ln]
	}
	if next != uint64(len(data)) {
		return nil, fmt.Errorf("store: v2: sections end at %d, file has %d bytes", next, len(data))
	}

	s := &StoreV2{data: data, region: newHeapRegion(data)}
	recs := []struct {
		id   uint32
		name string
		size int
		dst  *[]byte
		n    *int
	}{
		{secStrings, "strings", 1, &s.strings, new(int)},
		{secDocs, "documents", docRecSize, &s.docRecs, &s.nDocs},
		{secRevs, "revisions", revRecSize, &s.revRecs, &s.nRevs},
		{secStrRefs, "string refs", strRefSize, &s.refRecs, &s.nRefs},
		{secErrata, "errata", errRecSize, &s.errRecs, &s.nErr},
		{secItems, "items", itemRecSize, &s.itRecs, &s.nItems},
	}
	for _, r := range recs {
		sec, ok := secs[r.id]
		if !ok {
			return nil, fmt.Errorf("store: v2: missing %s section", r.name)
		}
		if len(sec)%r.size != 0 {
			return nil, fmt.Errorf("store: v2: %s section length %d not a multiple of %d", r.name, len(sec), r.size)
		}
		*r.dst = sec
		*r.n = len(sec) / r.size
	}

	if err := s.validateRecords(); err != nil {
		return nil, err
	}

	ords, hasOrds := secs[secOrds]
	post, hasPost := secs[secPostings]
	if hasOrds != hasPost {
		return nil, fmt.Errorf("store: v2: postings sections must appear together")
	}
	if hasOrds {
		if len(ords)%4 != 0 {
			return nil, fmt.Errorf("store: v2: ordinal section length %d not a multiple of 4", len(ords))
		}
		s.ords = ords
		s.nOrds = len(ords) / 4
		for i := 0; i < s.nOrds; i++ {
			if o := gu32(ords, i*4); int(o) >= s.nErr {
				return nil, fmt.Errorf("store: v2: ordinal %d out of range [0,%d)", o, s.nErr)
			}
		}
		p, err := s.parsePostings(post)
		if err != nil {
			return nil, err
		}
		s.post = p
	}

	frags, hasFrags := secs[secFrags]
	fragIdx, hasIdx := secs[secFragIdx]
	if hasFrags != hasIdx {
		return nil, fmt.Errorf("store: v2: fragment sections must appear together")
	}
	if hasFrags {
		if len(fragIdx) != s.nErr*fragIdxSize {
			return nil, fmt.Errorf("store: v2: fragment index holds %d bytes for %d errata", len(fragIdx), s.nErr)
		}
		for i := 0; i < s.nErr; i++ {
			base := i * fragIdxSize
			for _, f := range [2][2]uint32{
				{gu32(fragIdx, base), gu32(fragIdx, base+4)},
				{gu32(fragIdx, base+8), gu32(fragIdx, base+12)},
			} {
				if uint64(f[0])+uint64(f[1]) > uint64(len(frags)) {
					return nil, fmt.Errorf("store: v2: fragment range [%d,%d) exceeds fragment section (%d bytes)",
						f[0], uint64(f[0])+uint64(f[1]), len(frags))
				}
			}
		}
		s.frags = frags
		s.fragIdx = fragIdx
	}
	return s, nil
}

func (s *StoreV2) checkRef(off, ln uint32, what string) error {
	if uint64(off)+uint64(ln) > uint64(len(s.strings)) {
		return fmt.Errorf("store: v2: %s string ref [%d,%d) exceeds string table (%d bytes)",
			what, off, uint64(off)+uint64(ln), len(s.strings))
	}
	return nil
}

func (s *StoreV2) checkRange(off, n uint32, limit int, what string) error {
	if uint64(off)+uint64(n) > uint64(limit) {
		return fmt.Errorf("store: v2: %s range [%d,%d) exceeds %d records",
			what, off, uint64(off)+uint64(n), limit)
	}
	return nil
}

func (s *StoreV2) validateRecords() error {
	for i := 0; i < s.nRefs; i++ {
		if err := s.checkRef(gu32(s.refRecs, i*strRefSize), gu32(s.refRecs, i*strRefSize+4), "list"); err != nil {
			return err
		}
	}
	for i := 0; i < s.nItems; i++ {
		base := i * itemRecSize
		if err := s.checkRef(gu32(s.itRecs, base), gu32(s.itRecs, base+4), "item category"); err != nil {
			return err
		}
		if err := s.checkRef(gu32(s.itRecs, base+8), gu32(s.itRecs, base+12), "item concrete"); err != nil {
			return err
		}
	}
	// The erratum loop runs once per entry per field; error labels are
	// built only on the (cold) failure path so the happy path does no
	// string work.
	errFields := [7]string{"id", "title", "description", "implication", "workaround", "status", "key"}
	for i := 0; i < s.nErr; i++ {
		base := i * errRecSize
		for f := range errFields {
			off, ln := gu32(s.errRecs, base+f*8), gu32(s.errRecs, base+f*8+4)
			if uint64(off)+uint64(ln) > uint64(len(s.strings)) {
				return s.checkRef(off, ln, "erratum "+errFields[f])
			}
		}
		if wc := s.errRecs[base+60]; int(wc) >= len(core.WorkaroundCategories) {
			return fmt.Errorf("store: v2: erratum %d workaround category %d out of range", i, wc)
		}
		if fx := s.errRecs[base+61]; int(fx) >= len(core.FixStatuses) {
			return fmt.Errorf("store: v2: erratum %d fix status %d out of range", i, fx)
		}
		if fl := s.errRecs[base+62]; fl > 7 {
			return fmt.Errorf("store: v2: erratum %d flags %#x out of range", i, fl)
		}
		itemFields := [3]string{"trigger", "context", "effect"}
		for f := range itemFields {
			off, n := gu32(s.errRecs, base+76+f*8), gu32(s.errRecs, base+80+f*8)
			if uint64(off)+uint64(n) > uint64(s.nItems) {
				return s.checkRange(off, n, s.nItems, "erratum "+itemFields[f])
			}
		}
		if err := s.checkRange(gu32(s.errRecs, base+100), gu32(s.errRecs, base+104), s.nRefs, "erratum MSR"); err != nil {
			return err
		}
	}
	for i := 0; i < s.nRevs; i++ {
		base := i * revRecSize
		if err := s.checkRange(gu32(s.revRecs, base+16), gu32(s.revRecs, base+20), s.nRefs, "revision added"); err != nil {
			return err
		}
	}
	// Documents: refs in bounds, sub-ranges in bounds, errata and
	// revision ranges exactly sequential (they define the ordinal
	// space), and records sorted the way Documents() sorts so that
	// materialized ordinals match the stored postings.
	var nextRev, nextErr uint32
	for i := 0; i < s.nDocs; i++ {
		base := i * docRecSize
		for f, what := range [3]string{"key", "label", "reference"} {
			if err := s.checkRef(gu32(s.docRecs, base+f*8), gu32(s.docRecs, base+f*8+4), "document "+what); err != nil {
				return err
			}
		}
		if v := gu32(s.docRecs, base+24); int(v) >= len(core.Vendors) {
			return fmt.Errorf("store: v2: document %d vendor %d out of range", i, v)
		}
		rOff, rN := gu32(s.docRecs, base+48), gu32(s.docRecs, base+52)
		eOff, eN := gu32(s.docRecs, base+56), gu32(s.docRecs, base+60)
		if rOff != nextRev {
			return fmt.Errorf("store: v2: document %d revision range starts at %d, want %d", i, rOff, nextRev)
		}
		if err := s.checkRange(rOff, rN, s.nRevs, "document revision"); err != nil {
			return err
		}
		nextRev = rOff + rN
		if eOff != nextErr {
			return fmt.Errorf("store: v2: document %d errata range starts at %d, want %d", i, eOff, nextErr)
		}
		if err := s.checkRange(eOff, eN, s.nErr, "document errata"); err != nil {
			return err
		}
		nextErr = eOff + eN
		if err := s.checkRange(gu32(s.docRecs, base+64), gu32(s.docRecs, base+68), s.nRefs, "document withdrawn"); err != nil {
			return err
		}
		if i > 0 {
			if c := s.compareDocOrder(i-1, i); c >= 0 {
				return fmt.Errorf("store: v2: documents %d and %d out of canonical order", i-1, i)
			}
		}
	}
	if int(nextRev) != s.nRevs {
		return fmt.Errorf("store: v2: documents cover %d of %d revisions", nextRev, s.nRevs)
	}
	if int(nextErr) != s.nErr {
		return fmt.Errorf("store: v2: documents cover %d of %d errata", nextErr, s.nErr)
	}
	return nil
}

// compareDocOrder compares two document records by the Documents() sort
// key (vendor, order, key) without materializing strings.
func (s *StoreV2) compareDocOrder(i, j int) int {
	bi, bj := i*docRecSize, j*docRecSize
	if vi, vj := gu32(s.docRecs, bi+24), gu32(s.docRecs, bj+24); vi != vj {
		if vi < vj {
			return -1
		}
		return 1
	}
	if oi, oj := int32(gu32(s.docRecs, bi+28)), int32(gu32(s.docRecs, bj+28)); oi != oj {
		if oi < oj {
			return -1
		}
		return 1
	}
	ki := s.strings[gu32(s.docRecs, bi):][:gu32(s.docRecs, bi+4)]
	kj := s.strings[gu32(s.docRecs, bj):][:gu32(s.docRecs, bj+4)]
	return bytes.Compare(ki, kj)
}

type v2cursor struct {
	b   []byte
	off int
	err error
}

func (c *v2cursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.err = fmt.Errorf("store: v2: postings section truncated at byte %d", c.off)
		return 0
	}
	v := gu32(c.b, c.off)
	c.off += 4
	return v
}

func (s *StoreV2) parsePostings(sec []byte) (*v2Postings, error) {
	c := &v2cursor{b: sec}
	p := &v2Postings{raw: sec}
	if n := c.u32(); c.err == nil && int(n) != s.nErr {
		return nil, fmt.Errorf("store: v2: postings describe %d errata, records hold %d", n, s.nErr)
	}
	c.u32() // reserved

	list := func(what string, mustSort bool) v2list {
		l := v2list{off: c.u32(), n: c.u32()}
		if c.err != nil {
			return l
		}
		if uint64(l.off)+uint64(l.n) > uint64(s.nOrds) {
			c.err = fmt.Errorf("store: v2: %s postings [%d,%d) exceed %d ordinals", what, l.off, uint64(l.off)+uint64(l.n), s.nOrds)
			return l
		}
		if mustSort {
			for i := uint32(1); i < l.n; i++ {
				a := gu32(s.ords, int(l.off+i-1)*4)
				b := gu32(s.ords, int(l.off+i)*4)
				if a >= b {
					c.err = fmt.Errorf("store: v2: %s postings not strictly ascending at position %d", what, i)
					return l
				}
			}
		}
		return l
	}

	p.unique = list("unique", false)
	p.complexSet = list("complex", true)
	p.simOnlySet = list("simulation-only", true)

	enumMap := func(what string, max int) []v2ev {
		n := c.u32()
		if c.err != nil {
			return nil
		}
		if int(n) > max {
			c.err = fmt.Errorf("store: v2: %s postings map has %d entries, max %d", what, n, max)
			return nil
		}
		out := make([]v2ev, 0, n)
		for i := uint32(0); i < n && c.err == nil; i++ {
			v := c.u32()
			if c.err == nil && int(v) >= max {
				c.err = fmt.Errorf("store: v2: %s postings value %d out of range", what, v)
				return nil
			}
			out = append(out, v2ev{val: v, list: list(what, true)})
		}
		return out
	}
	p.vendors = enumMap("vendor", len(core.Vendors))
	p.workarounds = enumMap("workaround", len(core.WorkaroundCategories))
	p.fixes = enumMap("fix", len(core.FixStatuses))

	strMapNames := [6]string{"document", "category", "trigger-category", "class", "key", "MSR"}
	for m := 0; m < 6 && c.err == nil; m++ {
		n := c.u32()
		if c.err != nil {
			break
		}
		if uint64(n) > uint64(len(sec)) {
			c.err = fmt.Errorf("store: v2: %s postings map count %d implausible", strMapNames[m], n)
			break
		}
		out := make([]v2kv, 0, n)
		for i := uint32(0); i < n && c.err == nil; i++ {
			r := strRef{off: c.u32(), ln: c.u32()}
			if c.err == nil {
				if err := s.checkRef(r.off, r.ln, strMapNames[m]+" postings key"); err != nil {
					c.err = err
					break
				}
			}
			out = append(out, v2kv{key: r, list: list(strMapNames[m], true)})
		}
		p.strMaps[m] = out
	}
	if c.err != nil {
		return nil, c.err
	}
	p.trigOff = c.off
	if len(sec)-c.off != s.nErr*4 {
		return nil, fmt.Errorf("store: v2: postings trailer holds %d bytes of trigger counts, want %d", len(sec)-c.off, s.nErr*4)
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// Accessors

// str materializes a string reference as a zero-copy view over the
// file buffer. References were bounds-checked at Open.
func (s *StoreV2) str(off, ln uint32) string {
	if ln == 0 {
		return ""
	}
	b := s.strings[off : off+ln]
	return unsafe.String(&b[0], len(b))
}

func (s *StoreV2) strList(off, n uint32) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := uint32(0); i < n; i++ {
		base := int(off+i) * strRefSize
		out[i] = s.str(gu32(s.refRecs, base), gu32(s.refRecs, base+4))
	}
	return out
}

func (s *StoreV2) itemList(off, n uint32) []core.Item {
	if n == 0 {
		return nil
	}
	out := make([]core.Item, n)
	for i := uint32(0); i < n; i++ {
		base := int(off+i) * itemRecSize
		out[i] = core.Item{
			Category: s.str(gu32(s.itRecs, base), gu32(s.itRecs, base+4)),
			Concrete: s.str(gu32(s.itRecs, base+8), gu32(s.itRecs, base+12)),
		}
	}
	return out
}

func v2date(u uint64) time.Time {
	v := int64(u)
	if v == v2NoDate {
		return time.Time{}
	}
	return time.Unix(v, 0).UTC()
}

// Size returns the number of erratum entries in the file without
// materializing anything.
func (s *StoreV2) Size() int { return s.nErr }

// Format returns FormatVersion2; part of the Reader interface.
func (s *StoreV2) Format() int { return FormatVersion2 }

// Mapped reports whether the store reads from a file mapping rather
// than heap bytes.
func (s *StoreV2) Mapped() bool { return s.region.Mapped() }

// Region returns the refcounted byte range backing the store. Holders
// that need the bytes to outlive Close (the serving layer's snapshots)
// must TryRetain it and Release when done.
func (s *StoreV2) Region() *Region { return s.region }

// Close releases the opener's reference on the backing region; for a
// mapped store the last reference dropped runs munmap. Close is
// idempotent. After the final release every accessor — and every
// zero-copy string materialized from the store — is invalid.
func (s *StoreV2) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	return s.region.Release()
}

// DecodeCount returns how many erratum records have been decoded so
// far. The lazy-materialization tests pin that an n-shard boot decodes
// each record exactly once.
func (s *StoreV2) DecodeCount() int64 { return s.decodes.Load() }

// NumDocs returns the number of document records without materializing
// anything.
func (s *StoreV2) NumDocs() int { return s.nDocs }

// Doc decodes document record i — metadata, revisions and withdrawn
// lists, but not its errata (see DocErrataRange and Erratum, which the
// lazy shard boot uses to decode only the entries a shard owns).
// Strings alias the file buffer.
func (s *StoreV2) Doc(i int) *core.Document {
	base := i * docRecSize
	d := &core.Document{
		Key:       s.str(gu32(s.docRecs, base), gu32(s.docRecs, base+4)),
		Label:     s.str(gu32(s.docRecs, base+8), gu32(s.docRecs, base+12)),
		Reference: s.str(gu32(s.docRecs, base+16), gu32(s.docRecs, base+20)),
		Vendor:    core.Vendor(gu32(s.docRecs, base+24)),
		Order:     int(int32(gu32(s.docRecs, base+28))),
		GenIndex:  int(int32(gu32(s.docRecs, base+32))),
		Released:  v2date(gu64(s.docRecs, base+40)),
		Withdrawn: s.strList(gu32(s.docRecs, base+64), gu32(s.docRecs, base+68)),
	}
	rOff, rN := gu32(s.docRecs, base+48), gu32(s.docRecs, base+52)
	if rN > 0 {
		d.Revisions = make([]core.Revision, rN)
		for r := uint32(0); r < rN; r++ {
			rb := int(rOff+r) * revRecSize
			d.Revisions[r] = core.Revision{
				Number: int(int32(gu32(s.revRecs, rb))),
				Date:   v2date(gu64(s.revRecs, rb+8)),
				Added:  s.strList(gu32(s.revRecs, rb+16), gu32(s.revRecs, rb+20)),
			}
		}
	}
	return d
}

// DocErrataRange returns the ordinal range [off, off+n) of document
// record i's errata. Ordinals are sequential across documents in record
// order (validated at open).
func (s *StoreV2) DocErrataRange(i int) (off, n int) {
	base := i * docRecSize
	return int(gu32(s.docRecs, base+56)), int(gu32(s.docRecs, base+60))
}

// Erratum decodes the erratum record at the given ordinal, attributed
// to docKey. Strings alias the file buffer. Each call decodes afresh;
// callers wanting shared identity (pointer-keyed fragments, shard
// ranks) must decode once and share the pointer.
func (s *StoreV2) Erratum(ord int, docKey string) *core.Erratum {
	s.decodes.Add(1)
	eb := ord * errRecSize
	flags := s.errRecs[eb+62]
	return &core.Erratum{
		DocKey:        docKey,
		ID:            s.str(gu32(s.errRecs, eb), gu32(s.errRecs, eb+4)),
		Seq:           int(int32(gu32(s.errRecs, eb+56))),
		Title:         s.str(gu32(s.errRecs, eb+8), gu32(s.errRecs, eb+12)),
		Description:   s.str(gu32(s.errRecs, eb+16), gu32(s.errRecs, eb+20)),
		Implication:   s.str(gu32(s.errRecs, eb+24), gu32(s.errRecs, eb+28)),
		Workaround:    s.str(gu32(s.errRecs, eb+32), gu32(s.errRecs, eb+36)),
		Status:        s.str(gu32(s.errRecs, eb+40), gu32(s.errRecs, eb+44)),
		WorkaroundCat: core.WorkaroundCategory(s.errRecs[eb+60]),
		Fix:           core.FixStatus(s.errRecs[eb+61]),
		AddedIn:       int(int32(gu32(s.errRecs, eb+64))),
		Disclosed:     v2date(gu64(s.errRecs, eb+68)),
		Key:           s.str(gu32(s.errRecs, eb+48), gu32(s.errRecs, eb+52)),
		Ann: core.Annotation{
			Triggers:          s.itemList(gu32(s.errRecs, eb+76), gu32(s.errRecs, eb+80)),
			Contexts:          s.itemList(gu32(s.errRecs, eb+84), gu32(s.errRecs, eb+88)),
			Effects:           s.itemList(gu32(s.errRecs, eb+92), gu32(s.errRecs, eb+96)),
			MSRs:              s.strList(gu32(s.errRecs, eb+100), gu32(s.errRecs, eb+104)),
			ComplexConditions: flags&1 != 0,
			TrivialTrigger:    flags&2 != 0,
			SimulationOnly:    flags&4 != 0,
		},
	}
}

// EntryKey returns the cluster key of the erratum record at ord without
// decoding the record. The string aliases the file buffer.
func (s *StoreV2) EntryKey(ord int) string {
	eb := ord * errRecSize
	return s.str(gu32(s.errRecs, eb+48), gu32(s.errRecs, eb+52))
}

// EntryID returns the vendor-assigned ID of the erratum record at ord
// without decoding the record. The string aliases the file buffer.
func (s *StoreV2) EntryID(ord int) string {
	eb := ord * errRecSize
	return s.str(gu32(s.errRecs, eb), gu32(s.errRecs, eb+4))
}

// HasPostings reports whether the file embeds the inverted index's
// postings lists.
func (s *StoreV2) HasPostings() bool { return s.post != nil }

// HasFragments reports whether the file embeds precomputed response
// fragments.
func (s *StoreV2) HasFragments() bool { return s.frags != nil }

// Database materializes the core database. Strings are zero-copy views
// over the file buffer, so the buffer must outlive the database. The
// result is memoized; concurrent callers share one materialization.
func (s *StoreV2) Database() (*core.Database, error) {
	s.dbOnce.Do(func() {
		s.db, s.dbErr = s.materialize()
		s.dbDone.Store(true)
	})
	return s.db, s.dbErr
}

// Materialized reports whether Database has already run, i.e. the full
// corpus is decoded and memoized. Lazy consumers (the sharded serving
// boot) use it to reuse the existing materialization instead of
// decoding the records a second time.
func (s *StoreV2) Materialized() bool { return s.dbDone.Load() }

func (s *StoreV2) materialize() (*core.Database, error) {
	db := core.NewDatabase()
	for i := 0; i < s.nDocs; i++ {
		d := s.Doc(i)
		eOff, eN := s.DocErrataRange(i)
		if eN > 0 {
			d.Errata = make([]*core.Erratum, eN)
			for j := 0; j < eN; j++ {
				d.Errata[j] = s.Erratum(eOff+j, d.Key)
			}
		}
		if err := db.Add(d); err != nil {
			return nil, fmt.Errorf("store: v2: %w", err)
		}
	}
	if err := db.Validate(); err != nil {
		return nil, fmt.Errorf("store: v2: %w", err)
	}
	return db, nil
}

// IndexLists reconstructs the inverted index's postings as spans over
// the ORDS section — the disk-resident postings iterator. Nothing is
// copied into the heap: every list reads its u32 ordinals straight off
// the file buffer (the mapping, for an mmap-backed store), so
// compound-filter queries walk postings from disk pages the kernel
// faults in on demand. Returns nil when the file
// carries no postings. Lists are only valid while the store's region
// holds a reference.
func (s *StoreV2) IndexLists() *index.ListParts {
	if s.post == nil {
		return nil
	}
	span := func(l v2list) index.List {
		if l.n == 0 {
			return nil
		}
		return index.NewSpan(s.ords[l.off*4 : (l.off+l.n)*4])
	}
	p := &index.ListParts{
		UniqueOrds:   span(s.post.unique),
		ComplexSet:   span(s.post.complexSet),
		SimOnlySet:   span(s.post.simOnlySet),
		ByVendor:     make(map[core.Vendor]index.List, len(s.post.vendors)),
		ByWorkaround: make(map[core.WorkaroundCategory]index.List, len(s.post.workarounds)),
		ByFix:        make(map[core.FixStatus]index.List, len(s.post.fixes)),
		TriggerCount: index.NewSpan(s.post.raw[s.post.trigOff : s.post.trigOff+s.nErr*4]),
	}
	for _, ev := range s.post.vendors {
		p.ByVendor[core.Vendor(ev.val)] = span(ev.list)
	}
	for _, ev := range s.post.workarounds {
		p.ByWorkaround[core.WorkaroundCategory(ev.val)] = span(ev.list)
	}
	for _, ev := range s.post.fixes {
		p.ByFix[core.FixStatus(ev.val)] = span(ev.list)
	}
	strMaps := [6]*map[string]index.List{
		&p.ByDoc, &p.ByCategory, &p.ByTriggerCat, &p.ByClass, &p.ByKey, &p.ByMSR,
	}
	for m, dst := range strMaps {
		mm := make(map[string]index.List, len(s.post.strMaps[m]))
		for _, kv := range s.post.strMaps[m] {
			mm[s.str(kv.key.off, kv.key.ln)] = span(kv.list)
		}
		*dst = mm
	}
	return p
}

// Fragments returns the precomputed response fragments, keyed by the
// materialized errata of Database(). Fragment bytes alias the file
// buffer. Returns nil (a valid, always-missing Fragments) when the file
// carries none; the error reports a failed materialization.
func (s *StoreV2) Fragments() (*Fragments, error) {
	s.frOnce.Do(func() {
		if s.frags == nil {
			return
		}
		db, err := s.Database()
		if err != nil {
			s.frErr = err
			return
		}
		s.fr, s.frErr = s.FragmentsFor(db.Errata())
	})
	return s.fr, s.frErr
}

// FragmentsFor returns the precomputed response fragments keyed by the
// caller's erratum pointers, which must be in ordinal order — errata[i]
// is the decode of record i. The lazy shard boot uses this: it decodes
// each record once into its own pointers (never calling Database()), so
// the pointer-keyed fragment maps must be built against those. Returns
// nil when the file carries no fragments.
func (s *StoreV2) FragmentsFor(errata []*core.Erratum) (*Fragments, error) {
	if s.frags == nil {
		return nil, nil
	}
	if len(errata) != s.nErr {
		return nil, fmt.Errorf("store: v2: fragments keyed by %d errata, file holds %d", len(errata), s.nErr)
	}
	fr := &Fragments{
		details:   make(map[*core.Erratum][]byte, len(errata)),
		summaries: make(map[*core.Erratum][]byte, len(errata)),
		keys:      make(map[string][]byte),
	}
	for i, e := range errata {
		base := i * fragIdxSize
		dOff, dLn := gu32(s.fragIdx, base), gu32(s.fragIdx, base+4)
		sOff, sLn := gu32(s.fragIdx, base+8), gu32(s.fragIdx, base+12)
		fr.details[e] = s.frags[dOff : dOff+dLn]
		fr.summaries[e] = s.frags[sOff : sOff+sLn]
		if e.Key != "" {
			if _, ok := fr.keys[e.Key]; !ok {
				kj, err := json.Marshal(e.Key)
				if err != nil {
					return nil, err
				}
				fr.keys[e.Key] = kj
			}
		}
	}
	return fr, nil
}
