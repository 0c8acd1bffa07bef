package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/blockio"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/sim"
)

// Every scenario that writes fills its payloads with stamp and checks
// what lands with check, so a misplaced, stale or torn block fails the
// run instead of printing a number.

// corrupt, when set, damages every payload stamp fills after filling
// it, so a test can show that each scenario's check catches a bad
// write.
var corrupt func(buf []byte)

// period is the 256-byte period of block's payload for write iteration
// it: byte j is seed[j%8] ^ (j*11+5), where seed spells block and it in
// eight bytes, so no two (block, it) pairs share a payload.
func period(block int64, it int) [256]byte {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(block)<<16|uint64(it)&0xffff)
	var p [256]byte
	for j := range p {
		p[j] = seed[j&7] ^ byte(j*11+5)
	}
	return p
}

// stamp fills buf with block's payload for write iteration it.
func stamp(buf []byte, block int64, it int) {
	p := period(block, it)
	for off := 0; off < len(buf); {
		off += copy(buf[off:], p[:])
	}
	if corrupt != nil {
		corrupt(buf)
	}
}

// check reports whether data holds block's payload for iteration it.
func check(data []byte, block int64, it int) error {
	p := period(block, it)
	for off := 0; off < len(data); off += len(p) {
		seg := data[off:min(off+len(p), len(data))]
		if bytes.Equal(seg, p[:len(seg)]) {
			continue
		}
		for j, v := range seg {
			if v != p[j] {
				return fmt.Errorf("block %d: byte %d is %#x, want %#x", block, off+j, v, p[j])
			}
		}
	}
	return nil
}

// vecBlocks totals a descriptor's blocks.
func vecBlocks(vec blockio.Vec) int64 {
	var n int64
	for _, sg := range vec {
		n += sg.N
	}
	return n
}

// stampVec stamps every block a descriptor writes into its buffer.
func stampVec(buf []byte, vec blockio.Vec, bs int64, it int) {
	for _, sg := range vec {
		for k := int64(0); k < sg.N; k++ {
			off := sg.BufOff + k*bs
			stamp(buf[off:off+bs], sg.Block+k, it)
		}
	}
}

// verifyFile checks f's image straight from the drives' pages —
// untimed and uncounted, so device stats and recorder gauges still
// describe the run alone: written blocks must hold iteration it's
// payload, the rest zeros.
func verifyFile(f *pfs.File, disks []*device.Disk, written []bool, it int) error {
	pages := make([]map[int64][]byte, len(disks))
	for i, d := range disks {
		var err error
		if pages[i], err = d.Snapshot(); err != nil {
			return err
		}
	}
	for b, w := range written {
		dev, pb := f.Set().Locate(int64(b))
		page := pages[dev][pb] // nil: never written
		switch {
		case w && page == nil:
			return fmt.Errorf("%s: block %d never reached its drive", f.Name(), b)
		case w:
			if err := check(page, int64(b), it); err != nil {
				return fmt.Errorf("%s: %w", f.Name(), err)
			}
		case page != nil && !bytes.Equal(page, make([]byte, len(page))):
			return fmt.Errorf("%s: block %d was never written but is not zero", f.Name(), b)
		}
	}
	return nil
}

// fillFile writes every record of f, stamped with its index, through a
// stream writer with opts.
func fillFile(p *sim.Proc, f *pfs.File, opts core.Options) error {
	w, err := core.OpenWriter(f, opts)
	if err != nil {
		return err
	}
	buf := make([]byte, f.Spec().RecordSize)
	for r := int64(0); r < f.Spec().NumRecords; r++ {
		stamp(buf, r, 0)
		if _, err := w.WriteRecord(p, buf); err != nil {
			return err
		}
	}
	return w.Close(p)
}

// recordReader is a sequential record view (core.StreamReader,
// boundary.DedupReader).
type recordReader interface {
	ReadRecord(ctx sim.Context) ([]byte, int64, error)
	Close(ctx sim.Context) error
}

// checkRecords drains rd, checking that it yields records
// 0..records-1 in order with their first-write payloads, and closes it.
func checkRecords(ctx sim.Context, rd recordReader, records int64) error {
	for i := int64(0); ; i++ {
		data, idx, err := rd.ReadRecord(ctx)
		if err == io.EOF {
			if i != records {
				return fmt.Errorf("scan ended after %d of %d records", i, records)
			}
			return rd.Close(ctx)
		}
		if err != nil {
			return err
		}
		if idx != i {
			return fmt.Errorf("record %d arrived as %d", i, idx)
		}
		if err := check(data, i, 0); err != nil {
			return err
		}
	}
}

// verifyRecords scans f's global view on the wall clock — after the
// simulation, so modeled times and device stats are already taken —
// checking every record's first-write payload.
func verifyRecords(files ...*pfs.File) error {
	for _, f := range files {
		rd, err := core.OpenReader(f, core.Options{})
		if err != nil {
			return err
		}
		if err := checkRecords(sim.NewWall(), rd, f.Spec().NumRecords); err != nil {
			return fmt.Errorf("%s: %w", f.Name(), err)
		}
	}
	return nil
}
