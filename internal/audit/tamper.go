package audit

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"jxtaoverlay/internal/seglog"
)

// Disk-adversary helpers: the attack suite (and the property test)
// corrupt journals through these so every test damages bytes the same
// way a malicious or failing disk would — by path, offset and bit,
// never through the Journal API.

// ErrNoRecords is returned when a tamper helper needs records the
// journal does not have.
var ErrNoRecords = errors.New("audit: journal has no records")

// Loc names one record's position on disk.
type Loc struct {
	seglog.Loc // Segment (file name), Offset (of the header), Size (framed)
	Seq        uint64
	Frame      Frame
}

// scan locates every record of the journal's intact prefix, in order
// (the helpers only need what decodes).
func scan(dir string) ([]Loc, error) {
	var locs []Loc
	for seg, err := range seglog.Scan(dir, format) {
		if err != nil {
			return nil, err
		}
		for r, err := range seg.Records() {
			if err != nil {
				return locs, nil
			}
			rec, _, err := DecodeRecord(r.Bytes)
			if err != nil {
				return locs, nil
			}
			locs = append(locs, Loc{Loc: r.Loc, Seq: rec.Seq, Frame: rec.Frame})
		}
	}
	return locs, nil
}

// lastRecord locates the journal's last intact record.
func lastRecord(dir string) (Loc, error) {
	locs, err := scan(dir)
	if err != nil {
		return Loc{}, err
	}
	if len(locs) == 0 {
		return Loc{}, ErrNoRecords
	}
	return locs[len(locs)-1], nil
}

// FlipBit flips one bit in the middle of the last record's body — the
// single-bit disk error (or the crudest tamper). The CRC catches it.
func FlipBit(dir string) (Loc, error) {
	loc, err := lastRecord(dir)
	if err != nil {
		return Loc{}, err
	}
	return loc, seglog.Flip(dir, loc.Loc)
}

// TearRecord truncates the journal halfway through its last record —
// the torn write a crash (or a truncation attack) leaves.
func TearRecord(dir string) (Loc, error) {
	loc, err := lastRecord(dir)
	if err != nil {
		return Loc{}, err
	}
	return loc, seglog.Tear(dir, format, loc.Loc)
}

// SwapRecords swaps the last two records that share a segment — a
// reorder that preserves every byte and every CRC, so only the chain
// (sequence and prev-hash continuity) can convict it. It returns the
// location of the earlier of the two (where verification must break).
func SwapRecords(dir string) (Loc, error) {
	locs, err := scan(dir)
	if err != nil {
		return Loc{}, err
	}
	for i := len(locs) - 1; i > 0; i-- {
		a, b := locs[i-1], locs[i]
		if a.Segment != b.Segment {
			continue
		}
		path := filepath.Join(dir, a.Segment)
		data, err := os.ReadFile(path)
		if err != nil {
			return Loc{}, err
		}
		swapped := make([]byte, 0, len(data))
		swapped = append(swapped, data[:a.Offset]...)
		swapped = append(swapped, data[b.Offset:b.Offset+b.Size]...)
		swapped = append(swapped, data[a.Offset:a.Offset+a.Size]...)
		swapped = append(swapped, data[b.Offset+b.Size:]...)
		return a, os.WriteFile(path, swapped, 0o644)
	}
	return Loc{}, fmt.Errorf("%w: need two records in one segment", ErrNoRecords)
}

// Rollback truncates the journal back to just after its most recent
// checkpoint that is not the final record, deleting later segments —
// the snapshot-restore attack. The resulting journal is internally
// consistent (it ends on a genuine signed checkpoint); only an
// externally remembered trust point (Verify's ExpectHead/ExpectSeq)
// can convict it. It returns the location of the checkpoint the
// journal was rolled back to.
func Rollback(dir string) (Loc, error) {
	locs, err := scan(dir)
	if err != nil {
		return Loc{}, err
	}
	ckpt := -1
	for i := len(locs) - 2; i >= 0; i-- {
		if locs[i].Frame == FrameCheckpoint {
			ckpt = i
			break
		}
	}
	if ckpt < 0 {
		return Loc{}, fmt.Errorf("%w: need a non-final checkpoint to roll back to", ErrNoRecords)
	}
	loc := locs[ckpt]
	return loc, seglog.Cut(dir, format, loc.Loc)
}
