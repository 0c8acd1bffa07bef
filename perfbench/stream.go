package main

import (
	"errors"
	"fmt"
	"io"
	"time"

	pario "repro"
	"repro/internal/workload"
)

// paper-stream: the paper's own traffic under PaperProfile on 1989
// drives, two processes per drive. The measured phase writes a PS and
// an IS file through stream writers (write-behind), reads both back
// through stream readers (read-ahead), reads a GDA file larger than the
// block cache at Zipf-skewed records through one shared direct handle,
// and finally scans the PS file through the global view. Every record
// read is checked with workload.CheckRecord.
type streamSize struct {
	procs   int   // processes; two per drive
	perProc int   // records each process writes to each of PS and IS
	gdaRecs int64 // records in the GDA file
	zipf    int   // Zipf reads per process
}

const (
	streamRecSize = 4096 // one record per 1989 drive block
	zipfSkew      = 1.1
	// streamThink is the mean modeled compute time a process spends on
	// each record before its next call; each draw is seeded.
	streamThink = time.Millisecond
)

// streamFile names the seeded record streams of the workload's files.
const (
	fileGDA = iota + 1
	filePS
	fileIS
)

func runStream(seed uint64, toy bool, rec *pario.Recorder) (*rep, error) {
	sz := streamSize{procs: 8, perProc: 768, gdaRecs: 4096, zipf: 2048}
	if toy {
		sz = streamSize{procs: 4, perProc: 256, gdaRecs: 256, zipf: 512}
	}
	ph := newPhase(rec)
	r := ph.r
	pf := pario.PaperProfile()
	m := pario.NewProfiledMachine(sz.procs/2, pf)
	ph.disks = m.Disks
	m.SetProbe(rec)
	opts := pf.Access
	nRecs := int64(sz.procs * sz.perProc)
	create := func(name string, org pario.Organization, n int64, parts int) (*pario.File, error) {
		return m.Volume.Create(pario.Spec{Name: name, Org: org, RecordSize: streamRecSize, BlockRecords: 1, NumRecords: n, Parts: parts})
	}
	ps, err := create("ps", pario.OrgPartitioned, nRecs, sz.procs)
	if err != nil {
		return nil, err
	}
	is, err := create("is", pario.OrgInterleaved, nRecs, sz.procs)
	if err != nil {
		return nil, err
	}
	gda, err := create("gda", pario.OrgGlobalDirect, sz.gdaRecs, 0)
	if err != nil {
		return nil, err
	}
	seedOf := func(file int) uint64 { return mix(seed, 3, uint64(file)) }
	// psRec and isRec give the global record index of process id's j-th
	// record in each file: PS partitions are contiguous, IS partitions
	// wrap one block at a time.
	psRec := func(id, j int) int64 { return int64(id*sz.perProc + j) }
	isRec := func(id, j int) int64 { return int64(id + j*sz.procs) }

	var lat []time.Duration
	failed := 0
	h := newDigest()
	// op computes for a seeded think time, then times one record call in
	// modeled time; a call error or a failed check counts as a failure.
	// key identifies the call within the rep.
	op := func(ctx pario.Context, key [3]uint64, call func() error) {
		ctx.Sleep(time.Duration(mix(seed, 10, key[0], key[1], key[2]) % uint64(2*streamThink)))
		t0 := ctx.Now()
		err := call()
		lat = append(lat, ctx.Now()-t0)
		if err != nil {
			failed++
		}
	}
	check := func(buf []byte, file int, want, got int64) error {
		h.Write(buf)
		if got != want {
			return fmt.Errorf("record %d returned as %d", want, got)
		}
		return workload.CheckRecord(buf, seedOf(file), want)
	}
	par := func(p *pario.Proc, name string, fn func(q *pario.Proc, id int) error) {
		var g pario.Group
		for id := 0; id < sz.procs; id++ {
			g.Spawn(m.Engine, fmt.Sprintf("%s-%d", name, id), func(q *pario.Proc) {
				if err := fn(q, id); err != nil {
					failed++
				}
			})
		}
		g.Wait(p)
	}
	writeStream := func(q *pario.Proc, w *pario.StreamWriter, file int, recOf func(j int) int64) error {
		buf := make([]byte, streamRecSize)
		for j := 0; j < sz.perProc; j++ {
			want := recOf(j)
			workload.Record(buf, seedOf(file), want)
			op(q, [3]uint64{1, uint64(file), uint64(want)}, func() error {
				got, err := w.WriteRecord(q, buf)
				if err == nil && got != want {
					err = fmt.Errorf("record %d written as %d", want, got)
				}
				return err
			})
		}
		return w.Close(q)
	}
	readStream := func(q *pario.Proc, rd *pario.StreamReader, file int, recOf func(j int) int64) error {
		for j := 0; j < sz.perProc; j++ {
			op(q, [3]uint64{2, uint64(file), uint64(recOf(j))}, func() error {
				buf, got, err := rd.ReadRecord(q)
				if err != nil {
					return err
				}
				return check(buf, file, recOf(j), got)
			})
		}
		if _, _, err := rd.ReadRecord(q); !errors.Is(err, io.EOF) {
			return fmt.Errorf("stream longer than written: %v", err)
		}
		return rd.Close(q)
	}

	var cache struct{ hits, misses, evictions, writebacks int64 }
	var setupErr error
	m.Go("driver", func(p *pario.Proc) {
		// Set-up: preload the GDA file.
		if setupErr = preload(p, gda, opts, seedOf(fileGDA), sz.gdaRecs); setupErr != nil {
			return
		}
		ph.begin(p.Now())

		// (1) Write PS and IS through stream writers.
		par(p, "write", func(q *pario.Proc, id int) error {
			w, err := pario.OpenPartWriter(ps, id, opts)
			if err != nil {
				return err
			}
			if err := writeStream(q, w, filePS, func(j int) int64 { return psRec(id, j) }); err != nil {
				return err
			}
			if w, err = pario.OpenInterleavedWriter(is, id, sz.procs, opts); err != nil {
				return err
			}
			return writeStream(q, w, fileIS, func(j int) int64 { return isRec(id, j) })
		})
		// (2) Read both back through stream readers.
		par(p, "read", func(q *pario.Proc, id int) error {
			rd, err := pario.OpenPartReader(ps, id, opts)
			if err != nil {
				return err
			}
			if err := readStream(q, rd, filePS, func(j int) int64 { return psRec(id, j) }); err != nil {
				return err
			}
			if rd, err = pario.OpenInterleavedReader(is, id, sz.procs, opts); err != nil {
				return err
			}
			return readStream(q, rd, fileIS, func(j int) int64 { return isRec(id, j) })
		})
		// (3) Zipf-skewed direct reads through one shared handle; hot
		// records are scattered over the file by a multiplicative hash.
		if dh, err := pario.OpenDirect(gda, opts); err != nil {
			failed++
		} else {
			par(p, "zipf", func(q *pario.Proc, id int) error {
				acc := workload.NewZipfAccess(mix(seed, 4, uint64(id)), sz.gdaRecs, zipfSkew)
				buf := make([]byte, streamRecSize)
				for i := 0; i < sz.zipf; i++ {
					rec := acc.Next() * 2654435761 % sz.gdaRecs
					op(q, [3]uint64{3, uint64(id), uint64(i)}, func() error {
						if err := dh.ReadRecordAt(q, rec, buf); err != nil {
							return err
						}
						return check(buf, fileGDA, rec, rec)
					})
				}
				return nil
			})
			cs := dh.CacheStats()
			cache.hits, cache.misses, cache.evictions, cache.writebacks = cs.Hits, cs.Misses, cs.Evictions, cs.WriteBacks
			if err := dh.Close(p); err != nil {
				failed++
			}
		}
		// (4) One sequential program scans PS through the global view.
		if gr, err := pario.OpenGlobalReader(ps, p); err != nil {
			failed++
		} else {
			buf := make([]byte, streamRecSize)
			for i := int64(0); i < nRecs; i++ {
				op(p, [3]uint64{4, 0, uint64(i)}, func() error {
					if _, err := io.ReadFull(gr, buf); err != nil {
						return err
					}
					return check(buf, filePS, i, i)
				})
			}
		}
		ph.end(p.Now())
	})
	if err := m.Run(); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, fmt.Errorf("set-up: %w", setupErr)
	}

	r.written = 2 * nRecs * streamRecSize
	r.bytes = int64(len(lat)) * streamRecSize
	r.lat = lat
	r.failed = failed
	for _, d := range lat {
		hashDur(h, d)
	}
	r.digest = h.Sum64()
	L := r.layer
	L["core.records"] = float64(len(lat))
	if n := cache.hits + cache.misses; n > 0 {
		L["buffer.hit_ratio"] = float64(cache.hits) / float64(n)
	}
	L["buffer.evictions"] = float64(cache.evictions)
	L["buffer.writebacks"] = float64(cache.writebacks)
	ph.diskLayer()
	return r, nil
}

// preload writes records [0, n) of f through a stream writer, each
// generated by workload.Record under the given seed.
func preload(p *pario.Proc, f *pario.File, opts pario.Options, seed uint64, n int64) error {
	w, err := pario.OpenWriter(f, opts)
	if err != nil {
		return err
	}
	buf := make([]byte, f.Mapper().RecordSize())
	for i := int64(0); i < n; i++ {
		workload.Record(buf, seed, i)
		if _, err := w.WriteRecord(p, buf); err != nil {
			return err
		}
	}
	return w.Close(p)
}
