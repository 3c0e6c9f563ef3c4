package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/eb"
	"repro/internal/servlet"
	"repro/internal/sim"
	"repro/internal/tpcw"
)

// Normative size of light_pages: four million direct-mode requests from
// 1000 session walkers, one sampling round every 10 000 requests.
const (
	lightRequests    = 4000000
	lightWalkers     = 1000
	lightSampleEvery = 10000
	// lightTraceEvery samples 1 request in 64 into a servlet.submit span.
	lightTraceEvery = 64
	// lightTick is the virtual time one sampling period stands for; the
	// engine never runs in direct mode, so the harness advances the clock.
	lightTick = time.Second
)

// heavyInteractions are the three pages whose DAO scans dominate the
// Shopping mix; light_pages removes them so weaver dispatch, AC advice
// and the agents are a large share of what remains.
var heavyInteractions = []string{tpcw.CompBestSellers, tpcw.CompNewProducts, tpcw.CompSearchResults}

// lightMatrix is the Shopping transition matrix with the heavy
// interactions unreachable and every remaining row renormalised to sum
// to one.
func lightMatrix() eb.Matrix {
	heavy := make(map[string]bool, len(heavyInteractions))
	for _, h := range heavyInteractions {
		heavy[h] = true
	}
	out := make(eb.Matrix)
	for from, row := range eb.TransitionMatrix(eb.Shopping) {
		if heavy[from] {
			continue
		}
		var kept []eb.Transition
		var total float64
		for _, tr := range row {
			if !heavy[tr.To] {
				kept = append(kept, tr)
				total += tr.Weight
			}
		}
		for i := range kept {
			kept[i].Weight /= total
		}
		out[from] = kept
	}
	return out
}

// walkMatrix is a transition matrix lowered to interaction indices with
// cumulative weights: one uniform draw and a short scan per step.
type walkMatrix struct {
	to  [][]uint8
	cum [][]float64
}

func compileWalk(m eb.Matrix) (*walkMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	wm := &walkMatrix{to: make([][]uint8, len(tpcw.Interactions)), cum: make([][]float64, len(tpcw.Interactions))}
	for from, row := range m {
		fi := interIndex[from]
		var total float64
		for _, tr := range row {
			total += tr.Weight
			wm.to[fi] = append(wm.to[fi], interIndex[tr.To])
			wm.cum[fi] = append(wm.cum[fi], total)
		}
	}
	return wm, nil
}

func (wm *walkMatrix) next(cur uint8, u float64) uint8 {
	cum := wm.cum[cur]
	x := u * cum[len(cum)-1]
	for i, c := range cum {
		if x < c {
			return wm.to[cur][i]
		}
	}
	return wm.to[cur][len(cum)-1]
}

// walker is one benchmark-owned session: the same page-flow rules as the
// load tier's sessions (Zipf item picks with page-link affinity, an
// assigned customer identity), drawn from its own seeded stream.
type walker struct {
	rng       sim.Rand64
	cur       uint8
	started   bool
	sessionID string
	uname     string
	links     [6]int64
	nLinks    int
}

// lightGen owns the walkers and fabricates their requests.
type lightGen struct {
	matrix  *walkMatrix
	zipf    *sim.ZipfTable
	walkers []walker
}

func newLightGen(seed uint64, walkers int) (*lightGen, error) {
	matrix, err := compileWalk(lightMatrix())
	if err != nil {
		return nil, err
	}
	const items, customers = 1000, 1440 // tpcw.Scale defaults
	g := &lightGen{matrix: matrix, zipf: sim.NewZipfTable(items, 0.8), walkers: make([]walker, walkers)}
	for i := range g.walkers {
		g.walkers[i] = walker{
			rng:       sim.DeriveRand64(seed, uint64(i)+1),
			cur:       interIndex[tpcw.CompHome],
			sessionID: "lp-" + strconv.Itoa(i),
			uname:     tpcw.Uname(i%customers + 1),
		}
	}
	return g, nil
}

func (g *lightGen) pickItem(w *walker) int64 {
	if w.nLinks > 0 && w.rng.Float64() < 0.7 {
		return w.links[w.rng.IntN(w.nLinks)]
	}
	return int64(g.zipf.Next(w.rng.Float64()))
}

// next advances walker i and returns its request, borrowed from the
// servlet pool (the caller releases it).
func (g *lightGen) next(i int) *servlet.Request {
	w := &g.walkers[i]
	if w.started {
		w.cur = g.matrix.next(w.cur, w.rng.Float64())
	}
	w.started = true
	req := servlet.AcquireRequest()
	name := tpcw.Interactions[w.cur]
	req.Interaction = name
	req.SessionID = w.sessionID
	switch name {
	case tpcw.CompHome, tpcw.CompProductDetail, tpcw.CompAdminRequest, tpcw.CompAdminConfirm:
		req.SetInt64Param("I_ID", g.pickItem(w))
	case tpcw.CompShoppingCart:
		req.SetParam("ACTION", "add")
		req.SetInt64Param("I_ID", g.pickItem(w))
		req.SetInt64Param("QTY", 1+int64(w.rng.IntN(3)))
	case tpcw.CompBuyRequest:
		if w.rng.Float64() < 0.8 {
			req.SetParam("UNAME", w.uname)
		}
	case tpcw.CompOrderDisplay:
		req.SetParam("UNAME", w.uname)
	}
	return req
}

// observe feeds a response back: a failure restarts the walk at home,
// page links feed the next item pick.
func (g *lightGen) observe(i int, resp *servlet.Response) {
	w := &g.walkers[i]
	if !resp.OK() {
		w.cur = interIndex[tpcw.CompHome]
		w.started = false
		return
	}
	if ids := resp.ItemIDs(); len(ids) > 0 {
		w.nLinks = copy(w.links[:], ids)
	}
}

// lightStack is an assembled light_pages run.
type lightStack struct {
	app *appStack
	gen *lightGen
}

func lightSizes(scale float64) (requests, walkers int) {
	return scaled(lightRequests, scale, 2*lightSampleEvery), scaled(lightWalkers, scale, 20)
}

// buildLightStack assembles a direct-mode stack. Monitored is the
// workload itself; the unmonitored variant exists for the advice probe.
func buildLightStack(cfg runConfig, monitored bool) (*lightStack, error) {
	_, walkers := lightSizes(cfg.Scale)
	app, err := newAppStack(sim.NewEngine(), cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	if monitored {
		if err := app.monitor(""); err != nil {
			return nil, err
		}
		if _, err := app.fw.AttachDetectors(detectConfig); err != nil {
			return nil, fmt.Errorf("light stack: %w", err)
		}
	}
	gen, err := newLightGen(cfg.Seed, walkers)
	if err != nil {
		return nil, err
	}
	return &lightStack{app: app, gen: gen}, nil
}

// serve issues requests [from, to) round-robin over the walkers and
// returns how many responses were not OK. spans, when non-nil, receives
// one servlet.submit span per lightTraceEvery requests.
func (ls *lightStack) serve(from, to int, spans *spanBuf) (failed int64) {
	c := ls.app.container
	n := len(ls.gen.walkers)
	for i := from; i < to; i++ {
		wi := i % n
		req := ls.gen.next(wi)
		si := -1
		if spans != nil && i%lightTraceEvery == 0 {
			si = spans.begin(spanSubmit, interIndex[req.Interaction], uint64(i)+1)
		}
		resp, _ := c.Invoke(req)
		if si >= 0 {
			spans.end(si)
		}
		if !resp.OK() {
			failed++
		}
		ls.gen.observe(wi, resp)
		servlet.ReleaseRequest(req)
		servlet.ReleaseResponse(resp)
		if ls.app.fw != nil && (i+1)%lightSampleEvery == 0 {
			ls.app.engine.Clock().Advance(lightTick)
			ls.app.fw.Manager().Sample(ls.app.engine.Now())
		}
	}
	return failed
}

func runLightPages(cfg runConfig) (*result, error) {
	requests, walkers := lightSizes(cfg.Scale)
	res := &result{Workload: cfg.Workload, Traced: cfg.Traced,
		Size: fmt.Sprintf("requests=%d walkers=%d sample_every=%d monitored", requests, walkers, lightSampleEvery)}

	ls, err := buildLightStack(cfg, true)
	if err != nil {
		return nil, err
	}
	defer ls.app.container.Stop()

	app := ls.app
	var spans *spanBuf
	if cfg.Traced {
		spans = newSpanBuf(1, requests/lightTraceEvery+1)
	}
	ordersBefore, err := app.tableLen(tpcw.TableOrders)
	if err != nil {
		return nil, err
	}
	dbBefore := app.db.Stats()
	jpBefore := app.weaver.JoinPoints()

	before := readUsage()
	if cfg.SetupOnly {
		res.addSetup(before)
		return res, nil
	}
	res.Failed = ls.serve(0, requests, spans)
	after := readUsage()
	res.WallS = after.at.Sub(before.at).Seconds()
	res.Attempted = int64(requests)

	res.check(res.Failed == 0, "%d of %d responses not OK", res.Failed, res.Attempted)
	var recorded int64
	for _, comp := range tpcw.Interactions {
		recorded += app.fw.InvocationAgent().StatsOf(comp).Count
	}
	res.check(recorded == int64(requests), "invocation agent recorded %d servlet executions for %d requests", recorded, requests)
	for _, comp := range heavyInteractions {
		res.check(app.container.InteractionCount(comp) == 0, "heavy interaction %s was reached", comp)
	}
	if err := checkOrders(res, app, ordersBefore, 0); err != nil {
		return nil, err
	}
	if err := checkBestSellers(res, app, cfg.Seed); err != nil {
		return nil, err
	}

	dbAfter := app.db.Stats()
	res.add("sqldb.rows_scanned_per_interaction", float64(dbAfter.RowsScanned-dbBefore.RowsScanned)/float64(requests), "count")
	res.add("aspect.joinpoints_per_interaction", float64(app.weaver.JoinPoints()-jpBefore)/float64(requests), "count")
	if !cfg.Traced {
		return res, res.addEndToEnd(mInteractions, before, after, int64(requests))
	}

	res.add("sqldb.queries_per_interaction", float64(dbAfter.Queries-dbBefore.Queries)/float64(requests), "count")
	submitLayerMetrics(res, spans.spans, lightTraceEvery)
	genS := lightGeneratorProbe(cfg)
	res.GeneratorS = genS
	res.addN("eb.generator_ns_per_interaction", genS*1e9/float64(requests), "ns", requests)
	if err := adviceProbe(res, cfg); err != nil {
		return nil, err
	}
	objsizeProbe(res, app.fw, tpcw.Interactions)
	if err := daoProbes(res, app); err != nil {
		return nil, err
	}
	aspectProbes(res, cfg.Scale)
	if cfg.TraceOut != "" {
		if err := writeSpans(cfg.TraceOut, spans.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}
