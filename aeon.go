// Package aeon is a Go implementation of AEON — Atomic Events over an
// Ownership Network (Sang et al., Middleware 2016): a programming framework
// for scalable, elastic cloud services in which applications are modeled as
// a DAG of stateful contexts and multi-context events execute with strict
// serializability, deadlock freedom and starvation freedom.
//
// Programs declare contextclasses (state factory + method table, with the
// paper's `ro` readonly modifier and statically checked may-access sets),
// instantiate contexts into an ownership network, and submit events:
//
//	s := aeon.NewSchema()
//	account := s.MustDeclareClass("Account", func() any { return &Account{} })
//	account.MustDeclareMethod("deposit", deposit)
//	bank := s.MustDeclareClass("Bank", nil)
//	bank.MustDeclareMethod("transfer", transfer,
//		aeon.MayCall("Account", "deposit"), aeon.MayCall("Account", "withdraw"))
//
//	sys, err := aeon.New(aeon.WithSchema(s), aeon.WithServers(4, aeon.M3Large))
//	bankID, _ := sys.Runtime.CreateContext("Bank")
//	a1, _ := sys.Runtime.CreateContext("Account", bankID)
//	a2, _ := sys.Runtime.CreateContext("Account", bankID)
//	_, err = sys.Runtime.Submit(bankID, "transfer", a1, a2, 100)
//
// Events are sequenced at the dominator of their target context (§ 4 of the
// paper), so conflicting events serialize while disjoint ones run in
// parallel. The elasticity manager (System.Manager) migrates contexts
// between servers with the paper's five-step protocol and evaluates
// elasticity policies (resource utilization, server contention, SLA).
package aeon

import (
	"aeon/internal/cloudstore"
	"aeon/internal/cluster"
	"aeon/internal/core"
	"aeon/internal/emanager"
	"aeon/internal/ownership"
	"aeon/internal/schema"
	"aeon/internal/transport"
)

// Core type surface, re-exported from the implementation packages.
type (
	// ContextID identifies a context in the ownership network.
	ContextID = ownership.ID
	// Schema is a set of contextclass declarations.
	Schema = schema.Schema
	// Class is one contextclass declaration.
	Class = schema.Class
	// Call is the environment a method body executes in.
	Call = schema.Call
	// Handler is a contextclass method body.
	Handler = schema.Handler
	// AsyncResult joins an asynchronous intra-event call.
	AsyncResult = schema.AsyncResult
	// MethodOption configures a method declaration.
	MethodOption = schema.MethodOption

	// Runtime executes events over an ownership network on a cluster.
	Runtime = core.Runtime
	// RuntimeConfig tunes the runtime.
	RuntimeConfig = core.Config
	// Future is an asynchronous event-submission handle.
	Future = core.Future
	// Context is the runtime representation of a context instance.
	Context = core.Context

	// Cluster is the compute substrate (simulated servers + network).
	Cluster = cluster.Cluster
	// Server is one simulated machine.
	Server = cluster.Server
	// ServerID identifies a server.
	ServerID = cluster.ServerID
	// Profile describes a server instance type.
	Profile = cluster.Profile

	// Graph is the ownership network.
	Graph = ownership.Graph
	// GraphSnapshot is an immutable, lock-free view of the ownership
	// network at one version (Graph.Snapshot / Graph.Resolve).
	GraphSnapshot = ownership.Snapshot

	// Manager is the elasticity manager (eManager, § 5).
	Manager = emanager.Manager
	// ManagerConfig tunes the elasticity manager.
	ManagerConfig = emanager.Config
	// Policy decides elasticity actions from telemetry.
	Policy = emanager.Policy
	// SLAPolicy scales the cluster to keep request latency under a target.
	SLAPolicy = emanager.SLAPolicy
	// ResourceUtilizationPolicy migrates load off overloaded servers.
	ResourceUtilizationPolicy = emanager.ResourceUtilizationPolicy
	// ServerContentionPolicy bounds contexts per server.
	ServerContentionPolicy = emanager.ServerContentionPolicy
	// Constraint can veto elasticity actions (Tuba-style).
	Constraint = emanager.Constraint
	// DSLPolicy is a policy compiled from the elasticity policy language
	// (the § 8 future-work extension), e.g.
	// "when latency > 10ms add server m1.small".
	DSLPolicy = emanager.DSLPolicy

	// CloudStore is the versioned KV store backing the eManager: the one
	// replica of the single-partition store plane a System journals into.
	CloudStore = cloudstore.Store
	// SimNetworkConfig parameterizes the simulated network.
	SimNetworkConfig = transport.SimConfig
)

// Method declaration options (the paper's `ro` modifier plus the statically
// checked access annotations).
var (
	// RO marks a method readonly; readonly events activate contexts in
	// share mode and run concurrently.
	RO = schema.RO
	// MayAccess declares the contextclasses a method may reach.
	MayAccess = schema.MayAccess
	// MayCall declares a specific child method a method may invoke.
	MayCall = schema.MayCall
	// Cost declares simulated CPU consumed per invocation.
	Cost = schema.Cost
)

// Runtime errors callers are expected to branch on.
var (
	// ErrBackpressure completes a SubmitAsync Future when the target
	// server's executor queue is full; retry later or shed load.
	ErrBackpressure = core.ErrBackpressure
	// ErrClosed is returned when submitting to a closed runtime.
	ErrClosed = core.ErrClosed
)

// Server instance profiles (calibrated against the paper's EC2 types).
var (
	M3Large  = cluster.M3Large
	M1Large  = cluster.M1Large
	M1Medium = cluster.M1Medium
	M1Small  = cluster.M1Small
)

// MaxServers returns a constraint capping cluster growth.
func MaxServers(n int) Constraint { return emanager.MaxServers(n) }

// CompilePolicy compiles an elasticity policy program, e.g.:
//
//	when latency > 10ms add server m1.small
//	when util > 0.85 rebalance 0.5
//	max servers 32
//	cooldown 2s
func CompilePolicy(src string) (*DSLPolicy, error) { return emanager.CompilePolicy(src) }

// PinContexts returns a constraint forbidding migration of the given
// contexts.
func PinContexts(ids ...ContextID) Constraint { return emanager.PinContexts(ids...) }

// NewSchema returns an empty contextclass schema.
func NewSchema() *Schema { return schema.New() }

// NewGraph returns an empty ownership network.
func NewGraph() *Graph { return ownership.NewGraph() }

// System bundles a deployed AEON stack: the runtime, its cluster, the
// elasticity manager, and the cloud store the manager journals into.
type System struct {
	Runtime *Runtime
	Cluster *Cluster
	Manager *Manager
	Store   *CloudStore
}

// options collects System construction settings.
type options struct {
	schema     *Schema
	servers    int
	profile    Profile
	netCfg     SimNetworkConfig
	rtCfg      RuntimeConfig
	mgrCfg     ManagerConfig
	storeOpts  []cloudstore.Option
	haveRtCfg  bool
	haveMgrCfg bool
}

// Option configures New.
type Option func(*options)

// WithSchema sets the application schema (required). The schema is frozen
// by New if it is not already.
func WithSchema(s *Schema) Option {
	return func(o *options) { o.schema = s }
}

// WithServers provisions n servers of the given profile (default: 2 ×
// m3.large).
func WithServers(n int, p Profile) Option {
	return func(o *options) { o.servers, o.profile = n, p }
}

// WithNetwork sets the simulated network parameters (default: the
// intra-datacenter model used by the benchmarks).
func WithNetwork(cfg SimNetworkConfig) Option {
	return func(o *options) { o.netCfg = cfg }
}

// WithRuntimeConfig overrides the runtime configuration.
func WithRuntimeConfig(cfg RuntimeConfig) Option {
	return func(o *options) { o.rtCfg, o.haveRtCfg = cfg, true }
}

// WithManagerConfig overrides the elasticity manager configuration.
func WithManagerConfig(cfg ManagerConfig) Option {
	return func(o *options) { o.mgrCfg, o.haveMgrCfg = cfg, true }
}

// New deploys an AEON system: a simulated cluster, a runtime over a fresh
// ownership network, and an elasticity manager journaling into an in-memory
// cloud store. Close the system with System.Close.
func New(opts ...Option) (*System, error) {
	o := options{
		servers: 2,
		profile: cluster.M3Large,
		netCfg:  transport.DefaultSimConfig(),
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.schema == nil {
		o.schema = schema.New()
	}
	if err := o.schema.Freeze(); err != nil {
		return nil, err
	}
	cl := cluster.New(transport.NewSim(o.netCfg))
	for i := 0; i < o.servers; i++ {
		cl.AddServer(o.profile)
	}
	rtCfg := core.DefaultConfig()
	if o.haveRtCfg {
		rtCfg = o.rtCfg
	}
	rt, err := core.New(o.schema, ownership.NewGraph(), cl, rtCfg)
	if err != nil {
		return nil, err
	}
	mgrCfg := emanager.DefaultConfig()
	if o.haveMgrCfg {
		mgrCfg = o.mgrCfg
	}
	store := cloudstore.New(o.storeOpts...)
	mgr := emanager.New(rt, cloudstore.NewReplicated(0, store), mgrCfg)
	return &System{Runtime: rt, Cluster: cl, Manager: mgr, Store: store}, nil
}

// Close stops the elasticity manager and drains the runtime.
func (s *System) Close() {
	if s.Manager != nil {
		s.Manager.Stop()
	}
	if s.Runtime != nil {
		s.Runtime.Close()
	}
}
