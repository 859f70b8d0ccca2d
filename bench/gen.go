package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"

	"highrpm/internal/core"
	"highrpm/internal/dataset"
	"highrpm/internal/platform"
	"highrpm/internal/workload"
)

// traceLen is the simulated seconds generated per node. Drivers replay the
// trace cyclically with ever-increasing timestamps; 1200 is a multiple of
// the model's miss interval, so the IM cadence survives the wrap.
const traceLen = 1200

// trainSeed and trainPerSuite fix the training set: the model is the
// service's configuration, not its traffic, so it does not follow -seed.
// Seven suites × 400 samples train in two to three seconds with
// core.DefaultOptions and land streaming TRR MAPE under 9 %, the
// EXPERIMENTS.md neighbourhood; 200 per suite trains a second faster
// but reads 10 %.
const (
	trainSeed     = 1
	trainPerSuite = 400
)

// second is one simulated second of one node: what the agent sends (PMC
// vector, IM reading when the sensor produced one) and the simulator's
// ground truth the returned estimate is scored against.
type second struct {
	pmc      []float64
	measured *float64
	pnode    float64
	pcpu     float64
	pmem     float64
}

// nodeTrace is one node's generated telemetry.
type nodeTrace struct {
	id      string
	seconds []second
}

// at returns the telemetry for driver tick t (cyclic replay).
func (n *nodeTrace) at(tick int) *second { return &n.seconds[tick%len(n.seconds)] }

// inputs is everything a workload run consumes. The seed is the only
// argument that shapes the traces; the program under test receives
// nothing but these samples.
type inputs struct {
	nodes []nodeTrace
	// hash is the SHA-256 over every generated sample, so two runs can
	// prove they measured the same traffic.
	hash string
}

// nodeName numbers nodes sequentially, as real clusters do (cn0001…).
// Sequential names are what exposes the FNV ring's placement skew; do not
// replace them with hand-balanced ones.
func nodeName(i int) string { return fmt.Sprintf("cn%04d", i+1) }

// generate simulates nodes ARM nodes for length seconds each. Every node
// runs a seeded back-to-back queue of workload benchmarks — it re-attaches
// the next program whenever the node goes idle, because the model never
// trained on an idle node and an idle tail drives streaming MAPE to
// 54–67 %. imEvery is the IM cadence in seconds (the model's miss
// interval for sparse workloads, 1 for a full-rate sensor).
func generate(seed int64, nodes, length, imEvery int) (*inputs, error) {
	suite := workload.Suite()
	h := sha256.New()
	in := &inputs{nodes: make([]nodeTrace, nodes)}
	for i := range in.nodes {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		node, err := platform.NewNode(platform.ARMConfig(), rng.Int63())
		if err != nil {
			return nil, err
		}
		queue := rng.Perm(len(suite))
		next := 0
		tr := &platform.Trace{Config: node.Config(), Dt: 1}
		for s := 0; s < length; s++ {
			if node.Idle() {
				node.Attach(suite[queue[next%len(queue)]])
				next++
			}
			tr.Samples = append(tr.Samples, node.Step(1))
		}
		sensor := platform.NewIPMISensor(float64(imEvery), rng.Int63())
		nt := nodeTrace{id: nodeName(i), seconds: make([]second, length)}
		for s, smp := range tr.Samples {
			nt.seconds[s] = second{
				pmc:   smp.Counters.Slice(),
				pnode: smp.PNode, pcpu: smp.PCPU, pmem: smp.PMEM,
			}
		}
		for _, rd := range sensor.Readings(tr) {
			// The reading taken at second s is what the agent attaches to
			// second s; the sensor's read-out latency shifts Reading.Time
			// but not which sample it belongs to.
			s := int(rd.Time - sensor.Latency + 0.5)
			p := rd.Power
			nt.seconds[s].measured = &p
		}
		hashNode(h, &nt)
		in.nodes[i] = nt
	}
	in.hash = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

func hashNode(h hash.Hash, nt *nodeTrace) {
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, _ = h.Write(buf[:])
	}
	_, _ = h.Write([]byte(nt.id))
	for i := range nt.seconds {
		s := &nt.seconds[i]
		for _, v := range s.pmc {
			put(v)
		}
		if s.measured != nil {
			put(*s.measured)
		} else {
			put(math.NaN())
		}
		put(s.pnode)
		put(s.pcpu)
		put(s.pmem)
	}
}

// trainModel fits the one model every service in a run shares, with the
// shipping training options. Workers=1 selects the bit-exact serial
// training path, so the model bytes (and every estimate) repeat exactly.
func trainModel(perSuite int) (*core.HighRPM, string, error) {
	cfg := dataset.DefaultGenerateConfig()
	cfg.Seed = trainSeed
	cfg.SamplesPerSuite = perSuite
	train := &dataset.Set{}
	for _, s := range workload.SuiteNames() {
		set, err := dataset.GenerateSuite(cfg, s)
		if err != nil {
			return nil, "", err
		}
		train.Append(set)
	}
	opts := core.DefaultOptions()
	opts.SetWorkers(1)
	model, err := core.Train(train, opts)
	if err != nil {
		return nil, "", err
	}
	data, err := core.Marshal(model)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(data)
	return model, hex.EncodeToString(sum[:]), nil
}
