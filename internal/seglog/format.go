package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// Wire layout of one record frame:
//
//	uint32 LE  body length
//	uint32 LE  CRC-32C (Castagnoli) of body
//	body       (the owning codec's bytes)

// HeaderSize is the width of a record's frame header.
const HeaderSize = 8

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Format describes one log's files and frames: how its segments are
// named and which body lengths its codec can produce. The error
// sentinels are the codec's own, so a frame error names the log it came
// from.
type Format struct {
	// Segment i is named Prefix + eight-digit i + Suffix.
	Prefix, Suffix string
	// MinBody and MaxBody bound a plausible body length: a header
	// outside them is corruption, never a reason to allocate.
	MinBody, MaxBody uint32
	// Short reports a buffer that ends before its record does — the
	// torn tail a crash mid-append leaves behind.
	Short error
	// Corrupt reports a record whose bytes are invalid: an implausible
	// length or a CRC mismatch here, bad body fields in the codec.
	Corrupt error
}

// Name returns the file name of segment i.
func (f Format) Name(i int) string { return fmt.Sprintf("%s%08d%s", f.Prefix, i, f.Suffix) }

// List returns the indices of the segments in dir, ascending.
func (f Format) List(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		num := strings.TrimSuffix(strings.TrimPrefix(e.Name(), f.Prefix), f.Suffix)
		if i, err := strconv.Atoi(num); err == nil && i >= 0 && f.Name(i) == e.Name() {
			segs = append(segs, i)
		}
	}
	slices.Sort(segs)
	return segs, nil
}

// Begin appends a blank frame header to dst. The caller appends the body
// and closes the frame with End(dst, start), start being len(dst)
// before Begin.
func Begin(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// End backfills the header of the record that starts at dst[start].
func End(dst []byte, start int) []byte {
	body := dst[start+HeaderSize:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(body, crcTable))
	return dst
}

// Split checks the frame of the record at the front of b and returns
// its body and framed length. The body aliases b.
func (f Format) Split(b []byte) (body []byte, n int, err error) {
	if len(b) < HeaderSize {
		return nil, 0, f.Short
	}
	size := binary.LittleEndian.Uint32(b)
	if size < f.MinBody || size > f.MaxBody {
		return nil, 0, fmt.Errorf("%w: implausible body length %d", f.Corrupt, size)
	}
	if uint32(len(b)-HeaderSize) < size {
		return nil, 0, f.Short
	}
	body = b[HeaderSize : HeaderSize+int(size)]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", f.Corrupt)
	}
	return body, HeaderSize + int(size), nil
}

// Loc names one record's position on disk.
type Loc struct {
	Segment string // file name within the log directory
	Offset  int64  // byte offset of the record's header
	Size    int64  // framed size (header + body); 0 for a damaged record
}

// Record is one framed record found by a scan.
type Record struct {
	Loc
	Bytes []byte // header + body, aliasing the segment's data
}

// Segment is one segment file read into memory.
type Segment struct {
	Index int
	Name  string
	Data  []byte
	// Tail reports that no later segment holds data, so damage here may
	// be the torn tail of a crash. Rotation can leave empty segments
	// after the last one written to; the tail is the last holding data.
	Tail bool

	format Format
}

// Scan yields the segments of the log in dir in order, each read whole.
// A read failure is yielded once and ends the scan.
func Scan(dir string, f Format) iter.Seq2[Segment, error] {
	return func(yield func(Segment, error) bool) {
		segs, err := f.List(dir)
		if err != nil {
			yield(Segment{}, err)
			return
		}
		lastData := -1
		for i, seg := range segs {
			if fi, err := os.Stat(filepath.Join(dir, f.Name(seg))); err == nil && fi.Size() > 0 {
				lastData = i
			}
		}
		for i, seg := range segs {
			name := f.Name(seg)
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				yield(Segment{}, err)
				return
			}
			if !yield(Segment{Index: seg, Name: name, Data: data, Tail: i >= lastData, format: f}, nil) {
				return
			}
		}
	}
}

// Records yields the segment's framed records in order. A record that
// fails its frame check is yielded with the error (and Size 0) and ends
// the segment: nothing after it can be located.
func (s Segment) Records() iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		for off := 0; off < len(s.Data); {
			loc := Loc{Segment: s.Name, Offset: int64(off)}
			_, n, err := s.format.Split(s.Data[off:])
			if err != nil {
				yield(Record{Loc: loc}, err)
				return
			}
			loc.Size = int64(n)
			if !yield(Record{Loc: loc, Bytes: s.Data[off : off+n]}, nil) {
				return
			}
			off += n
		}
	}
}

// Disk-adversary helpers. The fault-injection matrices and the attack
// suites damage closed logs through these, so every test breaks bytes
// the way a crash, a failing disk or an attacker with write access
// would: by path, offset and bit, never through the Log API.

// ErrNoRecords means the log holds no intact record to damage.
var ErrNoRecords = errors.New("seglog: no records")

// Last returns the location of the last record of the intact prefix of
// the log in dir.
func Last(dir string, f Format) (Loc, error) {
	last, found := Loc{}, false
scan:
	for seg, err := range Scan(dir, f) {
		if err != nil {
			return Loc{}, err
		}
		for rec, err := range seg.Records() {
			if err != nil {
				break scan
			}
			last, found = rec.Loc, true
		}
	}
	if !found {
		return Loc{}, ErrNoRecords
	}
	return last, nil
}

// Tear truncates the log halfway through the record at loc — the torn
// write a crash (or a truncation attack) leaves.
func Tear(dir string, f Format, loc Loc) error {
	return cut(dir, f, loc.Segment, loc.Offset+loc.Size/2)
}

// Cut truncates the log just after the record at loc — the
// snapshot-restore attack, which leaves a shorter log that still ends
// on a record boundary.
func Cut(dir string, f Format, loc Loc) error {
	return cut(dir, f, loc.Segment, loc.Offset+loc.Size)
}

// cut truncates segment name to size bytes and deletes every later
// segment.
func cut(dir string, f Format, name string, size int64) error {
	if err := os.Truncate(filepath.Join(dir, name), size); err != nil {
		return err
	}
	segs, err := f.List(dir)
	if err != nil {
		return err
	}
	past := false
	for _, seg := range segs {
		if past {
			if err := os.Remove(filepath.Join(dir, f.Name(seg))); err != nil {
				return err
			}
		}
		past = past || f.Name(seg) == name
	}
	return nil
}

// Flip flips one bit in the middle of the body of the record at loc,
// leaving its length frame intact, so the record frames but fails its
// CRC — a single-bit disk error, or the crudest tamper.
func Flip(dir string, loc Loc) error {
	f, err := os.OpenFile(filepath.Join(dir, loc.Segment), os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	pos := loc.Offset + HeaderSize + (loc.Size-HeaderSize)/2
	var b [1]byte
	if _, err := f.ReadAt(b[:], pos); err != nil {
		return err
	}
	b[0] ^= 0x10
	_, err = f.WriteAt(b[:], pos)
	return err
}
