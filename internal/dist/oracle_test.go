package dist

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"microadapt/internal/core"
	"microadapt/internal/engine"
	"microadapt/internal/hw"
	"microadapt/internal/plan"
	"microadapt/internal/primitive"
	"microadapt/internal/server"
	"microadapt/internal/service"
	"microadapt/internal/tpch"
)

// emptyAtOracleScale lists the queries whose reference result is empty
// at TPC-H sf=0.005 seed=42. Every row agrees on an empty table, so the
// oracle fails when a query outside this set comes back empty, or one
// inside it does not. Q18 and Q20 are empty only at this scale. Q22 is
// empty at larger ones too: the generator draws o_custkey uniformly, so
// essentially every customer has an order.
var emptyAtOracleScale = map[int]bool{18: true, 20: true, 22: true}

// oracleRow is one execution configuration. Rows with plan set run the
// spec's plan (every root, main root returned, as /v1/plan does) and
// compare against the plan reference; the others run the spec itself.
type oracleRow struct {
	name string
	plan bool
	run  func(sp tpch.Spec) (*engine.Table, error)
}

// TestIdentityOracle is the correctness property of Micro Adaptivity
// across every tier: flavors, decision arms, pipeline parallelism,
// storage encoding, the plan codec, the service, the HTTP surface and
// distributed execution are functionally equivalent, so every query must
// return its reference table under every row — bit for bit in wire form
// (the MWT1 body of server.EncodeTable: column names and types,
// integers, float bits, strings). The references run serially on flat
// storage with the single-flavor primitive.Defaults() build; the spec and
// plan references differ only for queries with a Go delivery step.
//
// A failure names the query and the row, as in
// TestIdentityOracle/Q05/arm1-p4, which is also the -run pattern that
// reruns that pair alone.
func TestIdentityOracle(t *testing.T) {
	db := tpch.Generate(0.005, 42)
	rows := oracleRows(t, db, db.Shard(0, 1).Encode()) // an encoded view of the same rows
	defaults := primitive.NewDictionary(primitive.Defaults())
	ref := func() *core.Session { return core.NewSession(defaults, hw.Machine1(), core.WithVectorSize(128)) }
	for _, sp := range tpch.Queries() {
		if testing.Short() && !slices.Contains([]int{1, 3, 4, 5, 6, 12, 13, 14, 15, 17, 21}, sp.ID) {
			continue
		}
		t.Run(sp.Name, func(t *testing.T) {
			t.Parallel()
			specRef, specErr := sp.Run(db, ref())
			planRef, planErr := runRoots(sp.Plan(db), ref())
			if err := errors.Join(specErr, planErr); err != nil {
				t.Fatalf("%s reference: %v", sp.Name, err)
			}
			switch empty := specRef.Rows() == 0 || planRef.Rows() == 0; {
			case empty && !emptyAtOracleScale[sp.ID]:
				t.Fatalf("%s: reference result is empty, so every row would pass vacuously", sp.Name)
			case !empty && emptyAtOracleScale[sp.ID]:
				t.Errorf("%s: reference result is no longer empty; drop it from emptyAtOracleScale", sp.Name)
			}
			want := map[bool]*engine.Table{false: specRef, true: planRef}
			for _, r := range rows {
				t.Run(r.name, func(t *testing.T) {
					got, err := r.run(sp)
					if err != nil {
						t.Fatalf("%s %s: %v", sp.Name, r.name, err)
					}
					if w := want[r.plan]; !bytes.Equal(wireBytes(t, got), wireBytes(t, w)) {
						t.Errorf("%s %s: wire form (column names, types, exact values) differs from the reference; fingerprint %s (%d rows), want %s (%d rows)",
							sp.Name, r.name, server.Fingerprint(got), got.Rows(), server.Fingerprint(w), w.Rows())
					}
				})
			}
		})
	}
}

// wireBytes is tab's MWT1 body with the table name set aside: tiers name
// results differently, and the oracle compares only what they hold.
func wireBytes(t *testing.T, tab *engine.Table) []byte {
	tj := server.EncodeTable(tab)
	tj.Name = ""
	data, err := server.MarshalTableBin(tj)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runRoots runs every root of b on s and returns the main root's table.
func runRoots(b *plan.Builder, s *core.Session) (main *engine.Table, err error) {
	ex := b.Bind(s)
	for _, root := range b.Roots() {
		t, err := ex.Run(root.Node)
		if err != nil {
			return nil, err
		}
		if main == nil {
			main = t
		}
	}
	return main, nil
}

// oracleRows builds every row once: in-process sessions over db and its
// encoded twin enc, three services, one HTTP server and eleven
// distributed fleets. Rows are safe to run from parallel subtests.
func oracleRows(t *testing.T, db, enc *tpch.DB) []oracleRow {
	everything := primitive.NewDictionary(primitive.Everything())
	session := func(dict *core.Dictionary, opts ...core.SessionOption) *core.Session {
		return core.NewSession(dict, hw.Machine1(), append([]core.SessionOption{core.WithVectorSize(128), core.WithSeed(7)}, opts...)...)
	}
	local := func(name string, db *tpch.DB, dict *core.Dictionary, opts ...core.SessionOption) oracleRow {
		return oracleRow{name: name, run: func(sp tpch.Spec) (*engine.Table, error) { return sp.Run(db, session(dict, opts...)) }}
	}
	// wire rows ship the spec's plan JSON through send.
	wire := func(name string, send func(data []byte) (*engine.Table, error)) oracleRow {
		return oracleRow{name: name, plan: true, run: func(sp tpch.Spec) (*engine.Table, error) {
			data, err := plan.MarshalPlan(sp.Plan(db))
			if err != nil {
				return nil, err
			}
			return send(data)
		}}
	}
	executor := func(name string, ex server.Executor) oracleRow {
		return oracleRow{name: name, run: func(sp tpch.Spec) (*engine.Table, error) {
			tab, _, err := ex.Execute(sp.ID)
			return tab, err
		}}
	}
	svcConfig := func(p int) service.Config {
		cfg := service.DefaultConfig()
		cfg.PipelineParallelism = p
		return cfg
	}

	rows := []oracleRow{
		local("vwgreedy", db, everything),
		local("roundrobin", db, everything, core.WithChooser(func(n int) core.Chooser { return core.NewRoundRobin(n) })),
		local("branchset", db, primitive.NewDictionary(primitive.BranchSet())),
		local("p2", db, everything, core.WithParallelism(2)),
		local("p4", db, everything, core.WithParallelism(4)),
	}
	for _, p := range []int{1, 2, 4} {
		rows = append(rows, local(fmt.Sprintf("enc-p%d", p), enc, everything, core.WithParallelism(p)))
	}
	// Every decision takes arm a (clamped to 0 past its arm count;
	// fragments inherit the factory), every primitive its first flavor.
	for a := 0; a < 3; a++ {
		forced := core.WithInstanceChooser(func(sig, label string, arms []string) core.Chooser {
			if core.IsDecisionSig(sig) {
				return core.NewFixed(a)
			}
			return core.NewFixed(0)
		})
		for _, p := range []int{1, 4} {
			rows = append(rows, local(fmt.Sprintf("arm%d-p%d", a, p), db, everything, forced, core.WithParallelism(p)))
		}
	}
	rows = append(rows, wire("planjson", func(data []byte) (*engine.Table, error) {
		b, err := plan.UnmarshalPlan(data, db.TableByName)
		if err != nil {
			return nil, err
		}
		return runRoots(b, session(everything))
	}))
	for _, p := range []int{1, 2, 4} {
		rows = append(rows, executor(fmt.Sprintf("service-p%d", p), service.New(db, svcConfig(p))))
	}

	c := server.NewClient(startServer(t, server.Config{Service: service.New(db, svcConfig(1)), StreamChunkRows: 7}))
	t.Cleanup(c.CloseIdleConnections) // runs before the server's shutdown
	rows = append(rows,
		oracleRow{name: "http-query", run: func(sp tpch.Spec) (*engine.Table, error) {
			return wireResult(c.Query(server.QueryRequest{Query: sp.ID, IncludeResult: true}))
		}},
		wire("http-plan", func(data []byte) (*engine.Table, error) {
			body, err := server.EncodePlanRequest(server.PlanRequest{Plan: data, IncludeResult: true})
			if err != nil {
				return nil, err
			}
			return wireResult(c.PlanEncoded(body))
		}),
		wire("http-stream", func(data []byte) (*engine.Table, error) { return streamResult(c, data) }),
	)

	for _, n := range []int{1, 2, 4} {
		for _, p := range []int{1, 2, 4} {
			// Small stream chunks so multi-chunk streams are the norm, not
			// an sf-dependent accident.
			urls := startShards(t, db, n, svcConfig(p), server.Config{StreamChunkRows: 64})
			coord := newCoordinator(t, Config{Shards: urls, DB: db, Service: svcConfig(p)})
			rows = append(rows, executor(fmt.Sprintf("dist-n%d-p%d", n, p), coord))
		}
	}
	// Encoded shards, as madaptd -encoded -shard I serves them: each
	// shard's service encodes its own slice of the rows.
	for _, n := range []int{2, 4} {
		cfg := svcConfig(1)
		cfg.EncodedStorage = true
		urls := startShards(t, db, n, cfg, server.Config{StreamChunkRows: 64})
		coord := newCoordinator(t, Config{Shards: urls, DB: db, Service: svcConfig(1)})
		rows = append(rows, executor(fmt.Sprintf("dist-enc-n%d", n), coord))
	}
	return rows
}

// wireResult decodes a buffered response's result and checks it against
// the row count the server reported.
func wireResult(out *server.Outcome, err error) (*engine.Table, error) {
	if err == nil && !out.OK() {
		err = fmt.Errorf("status %d: %+v", out.Status, out.Err)
	}
	if err != nil {
		return nil, err
	}
	return decodeChecked(out.Response.Result, out.Response.Rows)
}

// streamResult streams a plan, stitches its chunks in arrival order under
// the header's schema, and checks them against the trailer's row count.
func streamResult(c *server.Client, planJSON []byte) (*engine.Table, error) {
	body, err := server.EncodePlanRequest(server.PlanRequest{Plan: planJSON})
	if err != nil {
		return nil, err
	}
	var chunks []*server.TableJSON
	res, err := c.PlanStreamEncoded(body, func(ch *server.TableJSON) error {
		chunks = append(chunks, ch)
		return nil
	})
	if err != nil {
		return nil, err
	}
	whole := res.Schema
	for _, ch := range chunks {
		whole.Rows += ch.Rows
		for ci, col := range ch.Cols {
			w := &whole.Cols[ci]
			w.I64, w.F64, w.F64Bits, w.Str = append(w.I64, col.I64...), append(w.F64, col.F64...),
				append(w.F64Bits, col.F64Bits...), append(w.Str, col.Str...)
		}
	}
	return decodeChecked(whole, res.Rows)
}

// decodeChecked decodes a wire table and checks it against the row count
// the server reported. Bit identity is the oracle's wireBytes comparison.
func decodeChecked(tj *server.TableJSON, rows int) (*engine.Table, error) {
	tab, err := server.DecodeTable(tj)
	if err != nil {
		return nil, err
	}
	if tab.Rows() != rows {
		return nil, fmt.Errorf("server reported %d rows; the decoded result has %d", rows, tab.Rows())
	}
	return tab, nil
}
