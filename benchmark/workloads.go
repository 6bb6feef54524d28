package benchmark

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/benchmark/gen"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rel"
	"repro/internal/server"
)

// Workloads lists the benchmark's workloads in running order.
var Workloads = []string{"term_hot", "term_cold", "set_rw", "served_rw"}

// workload is one of the four input sets: how to generate it from a
// seed, how to store it, and how to drive it once the knowledge base has
// been reopened.
type workload interface {
	poolPages() int
	generate(seed uint64, sz Sizes)
	load(s *core.Session, bi *buildInfo) error
	open(in *instance, seed uint64) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "term_hot":
		return &termHot{}, nil
	case "term_cold":
		return &termCold{}, nil
	case "set_rw":
		return &setRW{}, nil
	case "served_rw":
		return &servedRW{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

// buildInfo is what bulk-loading a knowledge base cost.
type buildInfo struct {
	userBytes int64 // clause text plus tuple values loaded
	clauses   float64
	storeNS   float64 // time inside the EDB's clause store path
	tuples    int
	insertNS  int64 // time inserting and indexing tuples
	walBytes  float64
}

// instance is one opened knowledge base with the drivers that exercise it.
type instance struct {
	dir     string
	kb      *core.KnowledgeBase
	drivers []*driver
	// sessions are the sessions that execute operations: the drivers'
	// own, or the server's pool.
	sessions []*core.Session
	srv      *server.Server
	clients  []*server.Client
	build    buildInfo
}

func storePath(dir string) string { return filepath.Join(dir, "kb.pages") }

// buildKB creates a knowledge base under dir, bulk-loads the workload's
// data, flushes and closes it, so that the measured phase starts from
// what a restart would find on disk.
func buildKB(w workload, dir string) (buildInfo, error) {
	var bi buildInfo
	kb, err := core.OpenKB(core.Options{StorePath: storePath(dir), PoolPages: w.poolPages()})
	if err != nil {
		return bi, err
	}
	s, err := kb.NewSession()
	if err != nil {
		kb.Close()
		return bi, err
	}
	err = w.load(s, &bi)
	if err == nil {
		err = kb.Flush()
	}
	cost := s.Cost()
	bi.storeNS = float64(cost.Phases.Get(obs.PhaseStore))
	snap := kb.Obs().Snapshot()
	bi.clauses = toFloat(snap["edb.clauses_stored"])
	bi.walBytes = toFloat(snap["store.wal.bytes"])
	s.Close()
	if cerr := kb.Close(); err == nil {
		err = cerr
	}
	return bi, err
}

// openKB reopens the knowledge base and attaches the workload's drivers.
func openKB(w workload, dir string, seed uint64, bi buildInfo) (*instance, error) {
	kb, err := core.OpenKB(core.Options{StorePath: storePath(dir), PoolPages: w.poolPages()})
	if err != nil {
		return nil, err
	}
	in := &instance{dir: dir, kb: kb, build: bi}
	if err := w.open(in, seed); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// close ends the serving side (client connections, then the server, which
// closes its pool sessions once every handler has returned), closes the
// drivers' own sessions and closes the knowledge base, which checkpoints
// the log into the page file.
func (in *instance) close() error {
	var err error
	for _, c := range in.clients {
		c.Close()
	}
	if in.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = in.srv.Shutdown(ctx)
		cancel()
	}
	for _, d := range in.drivers {
		if st, ok := d.tgt.(sessionTarget); ok {
			st.s.Close()
		}
	}
	in.drivers = nil
	if cerr := in.kb.Close(); err == nil {
		err = cerr
	}
	return err
}

// addSessionDriver attaches a driver with a session of its own.
func (in *instance) addSessionDriver(stream gen.Stream) (*driver, error) {
	s, err := in.kb.NewSession()
	if err != nil {
		return nil, err
	}
	d := &driver{stream: stream, tgt: sessionTarget{s}}
	in.drivers = append(in.drivers, d)
	in.sessions = append(in.sessions, s)
	return d, nil
}

// --- term_hot ----------------------------------------------------------------

// termHot is the paper's Table 1 regime: the transport knowledge base in
// a pool that holds all of it, and at most two hundred distinct route
// queries, so every code cache stays warm and storage does no work.
type termHot struct{ data *gen.Transport }

func (w *termHot) poolPages() int { return hotPoolPages }

func (w *termHot) generate(seed uint64, sz Sizes) { w.data = gen.NewTransport(seed, sz.Transport) }

func (w *termHot) load(s *core.Session, bi *buildInfo) error {
	bi.userBytes = int64(len(w.data.Facts) + len(gen.TransportRules))
	if err := s.ConsultExternal(w.data.Facts); err != nil {
		return err
	}
	return s.ConsultExternal(gen.TransportRules)
}

func (w *termHot) open(in *instance, seed uint64) error {
	_, err := in.addSessionDriver(w.data.Reads(seed))
	return err
}

// --- term_cold ---------------------------------------------------------------

// termCold is the paper's thesis path: more distinct call patterns than
// either code cache holds, in a page file many times the pool, so almost
// every call traps, pre-unifies in the EDB, reads pages, decodes and
// links, while the WAM executes a handful of instructions.
type termCold struct{ data *gen.Items }

func (w *termCold) poolPages() int { return coldPoolPages }

func (w *termCold) generate(seed uint64, sz Sizes) { w.data = gen.NewItems(seed, sz.Items) }

func (w *termCold) load(s *core.Session, bi *buildInfo) error {
	bi.userBytes = int64(len(w.data.Source))
	return s.ConsultExternal(w.data.Source)
}

func (w *termCold) open(in *instance, seed uint64) error {
	_, err := in.addSessionDriver(w.data.Calls(seed))
	return err
}

// --- set_rw ------------------------------------------------------------------

// setRW is the set-at-a-time side: Wisconsin selections and joins through
// the relational operators, recursive queries through the semi-naive
// fixpoint, and a write every twentieth operation that invalidates the
// materialised closure.
type setRW struct{ data *gen.SetData }

func (w *setRW) poolPages() int { return hotPoolPages }

func (w *setRW) generate(seed uint64, sz Sizes) { w.data = gen.NewSetData(seed, sz.Set) }

func (w *setRW) load(s *core.Session, bi *buildInfo) error {
	bi.userBytes = w.data.TupleBytes + int64(len(w.data.Facts)+len(gen.SetRules))
	for _, l := range []struct {
		name string
		ts   []rel.Tuple
	}{{gen.RelA, w.data.A}, {gen.RelB, w.data.B}} {
		r, err := s.CreateRelation(gen.Schema(l.name))
		if err != nil {
			return err
		}
		// Insert, then index one attribute at a time: building both
		// indexes during the insert would interleave their page
		// allocations in map-iteration order, and the page file would
		// differ from run to run.
		t0 := time.Now()
		if err := s.InsertTuples(l.name, l.ts); err != nil {
			return err
		}
		for _, attr := range []string{"unique1", "unique2"} {
			if err := r.CreateIndex(attr); err != nil {
				return err
			}
		}
		bi.insertNS += time.Since(t0).Nanoseconds()
		bi.tuples += len(l.ts)
	}
	if err := s.ConsultExternal(w.data.Facts); err != nil {
		return err
	}
	return s.ConsultExternal(gen.SetRules)
}

func (w *setRW) open(in *instance, seed uint64) error {
	d, err := in.addSessionDriver(w.data.Ops(seed))
	if err != nil {
		return err
	}
	d.a, d.b = in.kb.Catalog().Get(gen.RelA), in.kb.Catalog().Get(gen.RelB)
	if d.a == nil || d.b == nil {
		return fmt.Errorf("set_rw: relations missing after reopen")
	}
	return nil
}

// --- served_rw ---------------------------------------------------------------

// servedRW puts the term_hot knowledge base behind the query server: two
// pool sessions, two client connections, 5 % write transactions. It is
// the only workload where the wire protocol, admission, the KB lock and
// commit fsyncs matter.
type servedRW struct{ termHot }

func (w *servedRW) open(in *instance, seed uint64) error {
	const clients = 2
	srv, err := server.New(in.kb, server.Config{
		MaxSessions:  clients,
		QueryTimeout: 30 * time.Second,
		SessionInit: func(s *core.Session) error {
			in.sessions = append(in.sessions, s)
			return nil
		},
	})
	if err != nil {
		return err
	}
	in.srv = srv
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		cl, err := server.DialTimeout(addr.String(), 30*time.Second)
		if err != nil {
			return err
		}
		in.clients = append(in.clients, cl)
		in.drivers = append(in.drivers, &driver{stream: w.data.Mixed(seed, c, servedWriteEvery), tgt: clientTarget{cl}})
	}
	return nil
}

// lostWrites reopens the page file after the server has shut down and
// counts what differs between each client's line as stored and the two
// clauses its last acknowledged commit asserted: a missing clause is a
// lost write, a surplus one a retract that did not survive.
func lostWrites(dir string, acked [][]string) (int, error) {
	kb, err := core.OpenKB(core.Options{StorePath: storePath(dir), PoolPages: hotPoolPages})
	if err != nil {
		return 0, err
	}
	defer kb.Close()
	s, err := kb.NewSession()
	if err != nil {
		return 0, err
	}
	defer s.Close()
	lost := 0
	for client, want := range acked {
		line := gen.WriteLine(client)
		sols, err := s.QueryAll(fmt.Sprintf("schedule2(%s, Kind, From, To, M)", line))
		if err != nil {
			return 0, err
		}
		stored := map[string]bool{}
		for _, sol := range sols {
			stored[fmt.Sprintf("schedule2(%s, %s, %s, %s, %s)", line, sol["Kind"], sol["From"], sol["To"], sol["M"])] = true
		}
		for _, c := range want {
			if !stored[c] {
				lost++
			}
			delete(stored, c)
		}
		lost += len(stored)
	}
	return lost, nil
}
