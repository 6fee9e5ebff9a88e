package core

import (
	"amoeba/internal/arrival"
	"amoeba/internal/autoscale"
	"amoeba/internal/controller"
	"amoeba/internal/engine"
	"amoeba/internal/iaas"
	"amoeba/internal/metrics"
	"amoeba/internal/monitor"
	"amoeba/internal/obs"
	"amoeba/internal/queueing"
	"amoeba/internal/serverless"
	"amoeba/internal/sim"
	"amoeba/internal/units"
	"amoeba/internal/workload"
)

// cell is the unit both kernels wire services into: one simulator with
// its serverless pool, IaaS platform (nil where nothing deploys on IaaS),
// contention monitor (nil for the baselines) and telemetry plumbing. Run
// wires the whole scenario into a single cell; RunSharded gives every
// service, background tenant and the monitor daemon a cell of its own.
type cell struct {
	sim    *sim.Simulator
	pool   *serverless.Platform
	vms    *iaas.Platform
	mon    *monitor.Monitor
	bus    *obs.Bus // nil when the run is unobserved
	tracer *obs.Tracer
}

// service is one managed service wired into a cell.
type service struct {
	prof workload.Profile
	coll *metrics.Collector
	eng  *engine.Engine // the Amoeba variants only
}

// amoebaLike reports whether v runs the Amoeba runtime — hybrid engine,
// controller and contention monitor — rather than a baseline.
func (v Variant) amoebaLike() bool {
	return v == VariantAmoeba || v == VariantAmoebaNoM || v == VariantAmoebaNoP
}

// monitorConfig is the contention-monitor configuration of variant v:
// PCA calibration is what Amoeba-NoM ablates.
func monitorConfig(v Variant) monitor.Config {
	cfg := monitor.DefaultConfig()
	cfg.UsePCA = v != VariantAmoebaNoM
	return cfg
}

// attach plumbs the bus and tracer into the cell's platforms. Unobserved
// cells never call it, so every emission site stays on its zero-cost
// path.
func (c *cell) attach(bus *obs.Bus, tracer *obs.Tracer) {
	c.bus, c.tracer = bus, tracer
	c.pool.SetBus(bus)
	c.pool.SetTracer(tracer)
	if c.vms != nil {
		c.vms.SetBus(bus)
		c.vms.SetTracer(tracer)
	}
}

// wireBackground runs a co-tenant on the cell's pool and returns its
// collector. Background tenants always run serverless (the paper's
// §VII-A setup). They are not Amoeba-managed, so the per-tenant share
// bound does not apply to them — give them room to breathe.
func (c *cell) wireBackground(bg ServiceSpec) *metrics.Collector {
	coll := metrics.NewCollector(bg.Profile.Name, bg.Profile.QoSTarget)
	c.pool.Register(bg.Profile, coll.Observe, serverless.WithNMax(64))
	arrival.New(c.sim, bg.Trace, invoker(c.pool, bg.Profile.Name)).Start()
	return coll
}

// startMonitor starts the contention-monitor daemon metering the cell's
// pool.
func (c *cell) startMonitor(slCfg serverless.Config, cfg monitor.Config) {
	c.mon = monitor.New(c.sim, c.pool, MeterCurves(slCfg), cfg)
	if c.bus != nil {
		c.mon.SetBus(c.bus)
		c.mon.SetTracer(c.tracer)
	}
	c.mon.Start()
}

// wireService deploys one managed service under the scenario's variant
// and starts its load generator. The Amoeba variants route through an
// engine driven by the cell's monitor, which must be set beforehand.
//
// It panics if building the controller or the sample period fails. That
// cannot happen for a validated scenario: validation vouches for the
// profile's QoS target and execution time the predictor and
// queueing.SamplePeriod consume, and controller.DefaultConfig is always
// valid.
func (c *cell) wireService(sc *Scenario, slCfg serverless.Config, svc ServiceSpec) *service {
	prof := svc.Profile
	w := &service{prof: prof}
	switch sc.Variant {
	case VariantNameko:
		w.coll = metrics.NewCollector(prof.Name, prof.QoSTarget)
		c.vms.Deploy(prof, w.coll.Observe)
		arrival.New(c.sim, svc.Trace, invoker(c.vms, prof.Name)).Start()

	case VariantOpenWhisk:
		w.coll = metrics.NewCollector(prof.Name, prof.QoSTarget)
		c.pool.Register(prof, w.coll.Observe)
		arrival.New(c.sim, svc.Trace, invoker(c.pool, prof.Name)).Start()

	case VariantAutoscale:
		w.coll = metrics.NewCollector(prof.Name, prof.QoSTarget)
		asCfg := autoscale.DefaultConfig()
		c.vms.DeployWithVMs(prof, asCfg.MinVMs, w.coll.Observe)
		autoscale.New(c.sim, c.vms, prof, asCfg).Start()
		arrival.New(c.sim, svc.Trace, invoker(c.vms, prof.Name)).Start()

	default: // the Amoeba variants
		// Register the primary function; the engine exists a moment
		// later, so indirect through the service.
		c.pool.Register(prof, func(r metrics.QueryRecord) { w.eng.OnServerlessComplete(r) })
		c.vms.Deploy(prof, func(r metrics.QueryRecord) { w.eng.OnIaaSComplete(r) })

		set := SurfaceSet(prof, slCfg)
		pred, err := controller.NewPredictor(prof, set, c.pool.NMax(prof.Name), units.Fraction(0.95))
		if err != nil {
			panic(err)
		}
		ctrl, err := controller.New(controller.DefaultConfig(), pred)
		if err != nil {
			panic(err)
		}

		engCfg := engine.DefaultConfig(slCfg.Node.Capacity())
		engCfg.SamplePeriod, err = queueing.SamplePeriod(
			slCfg.ColdStartMean, units.Seconds(prof.QoSTarget),
			units.Seconds(prof.ExecTime), sc.allowedError(), units.Seconds(10))
		if err != nil {
			panic(err)
		}
		engCfg.Prewarm = sc.Variant != VariantAmoebaNoP
		w.eng = engine.New(c.sim, c.pool, c.vms, prof, ctrl, c.mon, engCfg)
		if c.bus != nil {
			w.eng.SetBus(c.bus)
			w.eng.SetTracer(c.tracer)
			ctrl.SetTracer(c.tracer)
		}
		w.coll = w.eng.Collector
		w.eng.Start()

		arrival.New(c.sim, svc.Trace, func(sim.Time) { w.eng.HandleQuery() }).Start()

		if sc.SnapshotPeriod > 0 {
			c.sim.Every(sc.SnapshotPeriod.Raw(), func() {
				w.eng.Timeline.RecordSnapshot(metrics.Snapshot{At: float64(c.sim.Now()), Mode: w.eng.Mode()})
			})
		}
	}
	return w
}

// collect reads the service's result off the cell after the run.
func (c *cell) collect(v Variant, w *service) *ServiceResult {
	name := w.prof.Name
	sr := &ServiceResult{Profile: w.prof, Collector: w.coll, FinalWeights: monitor.InitialWeights()}
	switch v {
	case VariantNameko, VariantAutoscale:
		sr.IaaSUsage = c.vms.UsageFor(name)
		sr.ConsumedCPUSeconds = c.vms.ConsumedCPUSeconds(name)
		sr.Timeline = &metrics.Timeline{}
	case VariantOpenWhisk:
		sr.ServerlessUsage = c.pool.UsageFor(name)
		sr.Timeline = &metrics.Timeline{}
	default:
		sr.IaaSUsage = c.vms.UsageFor(name)
		sr.ConsumedCPUSeconds = c.vms.ConsumedCPUSeconds(name)
		sr.ServerlessUsage = c.pool.UsageFor(name).Add(c.pool.UsageFor(name + engine.ShadowSuffix))
		sr.Timeline = w.eng.Timeline
		sr.Decisions = w.eng.Controller().Decisions()
		sr.BlockedSwitches = w.eng.BlockedSwitches()
		sr.FinalWeights = c.mon.WeightsFor(name)
		sr.ViolationWindows = w.eng.Windowed.Windows(float64(c.sim.Now()))
	}
	return sr
}

// newResult returns the empty result tables of one scenario run.
func newResult(sc *Scenario) *Result {
	return &Result{
		Variant:    sc.Variant,
		Duration:   sc.Duration,
		Services:   make(map[string]*ServiceResult),
		Background: make(map[string]*metrics.Collector),
	}
}
