package main

// Per-layer microbenchmarks: each times one call into a single layer, so
// a regression the end-to-end workloads show can be pinned to a layer.
//
//	go test -run '^$' -bench Layer -benchmem .

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/journal"
	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wave"
)

var simSink sim.Time

func BenchmarkLayerNetTransfer(b *testing.B) {
	flat, err := hockney()
	if err != nil {
		b.Fatal(err)
	}
	emmy := cluster.Emmy()
	place, err := emmy.Placement(64)
	if err != nil {
		b.Fatal(err)
	}
	hier, err := emmy.NetModel(place)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    netmodel.Model
	}{{"Hockney", flat}, {"Hierarchical", hier}} {
		b.Run(c.name, func(b *testing.B) {
			var t sim.Time
			for i := 0; i < b.N; i++ {
				from := i & 63
				t += c.m.Transfer(from, (from+1)&63, 8192)
			}
			simSink = t
		})
	}
}

func BenchmarkLayerNoiseDraw(b *testing.B) {
	fn, err := noise.ExponentialNoise{Level: 0.1}.Build(1, sim.Milli(3))
	if err != nil {
		b.Fatal(err)
	}
	var t sim.Time
	for i := 0; i < b.N; i++ {
		t += fn(i&127, i>>7)
	}
	simSink = t
}

func BenchmarkLayerFrontObserve(b *testing.B) {
	const ranks = 10_000
	chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		b.Fatal(err)
	}
	threshold := sim.Milli(3) / 2
	tracker := wave.NewFrontTracker(chain, ranks/2, threshold)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := i % ranks
		if r == 0 && i > 0 {
			// Every rank has arrived; start a fresh front so Observe keeps
			// doing a first arrival's work.
			b.StopTimer()
			tracker = wave.NewFrontTracker(chain, ranks/2, threshold)
			b.StartTimer()
		}
		start := sim.Time(r) * sim.Milli(3)
		tracker.Observe(r, 2, start, start+2*threshold)
	}
}

func BenchmarkLayerJournalAppend(b *testing.B) {
	ws := jobSpec(1, []string{"0", "0.01", "0.02", "0.05"})
	enc, err := ws.Encode()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		kind journal.Kind // submit records are fsync'd, point rows buffered
	}{{"Fsync", journal.KindSubmit}, {"Buffered", journal.KindPoint}} {
		b.Run(c.name, func(b *testing.B) {
			jnl, _, err := journal.Open(b.TempDir(), journal.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer jnl.Close()
			rec := journal.Record{Kind: c.kind, Job: "j000001", Hash: "bench", Spec: enc, Total: jobPoints,
				Labels: []string{"0.01", "8192"}, Values: journal.Floats{1, 2, 3, 4}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Index = i
				if err := jnl.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLayerPingPong is a 2-rank run of 10^4 messages: rank 0 sends
// and then receives, rank 1 receives and then answers, so nearly all of
// its time is the matcher and the event queue.
func BenchmarkLayerPingPong(b *testing.B) {
	const rounds = 5_000 // two messages per round
	net, err := hockney()
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]mpisim.Program, 2)
	for i := 0; i < rounds; i++ {
		progs[0] = append(progs[0], mpisim.Isend{To: 1, Bytes: 8, Tag: i}, mpisim.Waitall{Step: i},
			mpisim.Irecv{From: 1, Bytes: 8, Tag: i}, mpisim.Waitall{Step: i})
		progs[1] = append(progs[1], mpisim.Irecv{From: 0, Bytes: 8, Tag: i}, mpisim.Waitall{Step: i},
			mpisim.Isend{To: 0, Bytes: 8, Tag: i}, mpisim.Waitall{Step: i})
	}
	cfg := mpisim.Config{Ranks: 2, Net: net, Trace: mpisim.TraceOff}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := mpisim.Run(cfg, progs)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events), "events/op")
}
