// Package core is the public façade of the SecureLease reproduction: it
// wires a complete deployment — a simulated SGX machine, its attestation
// platform, the SL-Remote license server, the SL-Local lease service, and
// any number of protected applications with their SL-Managers — behind one
// coherent API.
//
// A minimal licensed application looks like:
//
//	sys, _ := core.NewSystem(core.Config{})
//	_ = sys.RegisterLicense("lic-demo", lease.CountBased, 1000)
//	app, _ := sys.LaunchApp("demo")
//	app.Guard("render", "lic-demo")
//	_ = app.Execute("render", func() error { ...protected logic... ; return nil })
//
// The partition, workloads, harness, and attack packages build on the same
// components for the paper's experiments; core is the deployment story.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/attest"
	"repro/internal/chaos"
	"repro/internal/lease"
	"repro/internal/sgx"
	"repro/internal/sllocal"
	"repro/internal/slmanager"
	"repro/internal/slremote"
)

// Config assembles one SecureLease deployment. The zero value is a
// sensible single-machine setup with the paper's parameters.
type Config struct {
	// MachineName labels the client machine.
	MachineName string
	// EPCBytes overrides the EPC size (default ~92 MB).
	EPCBytes int64
	// Model overrides the SGX cost model.
	Model sgx.CostModel
	// Local tunes SL-Local (default: 10-token batches, 1.6 MB budget).
	Local sllocal.Config
	// Remote tunes SL-Remote's Algorithm 1 (default: the paper's D=4,
	// T_H=0.9, β=0.01, τ=10%).
	Remote slremote.Config
	// Network, if non-nil, is the simulated link between SL-Local and
	// SL-Remote. The caller keeps the pointer to partition it (SetDown).
	Network *chaos.Link
}

// System is one client machine running SecureLease plus its (bound)
// license server. Its one SL-Local service lives as long as the System and
// restarts in place. Systems are safe for concurrent use.
type System struct {
	machine  *sgx.Machine
	platform *attest.Platform
	remote   *slremote.Server
	local    *sllocal.Service

	mu      sync.Mutex
	running bool
	apps    map[string]*App
}

// App is one protected application: an enclave for its secure region plus
// the SL-Manager guarding its key functions.
type App struct {
	name    string
	enclave *sgx.Enclave
	manager *slmanager.Manager
}

// NewSystem builds and initializes a full deployment: machine, platform,
// attestation service (with SL-Local's measurement trusted), SL-Remote,
// and an initialized SL-Local.
func NewSystem(cfg Config) (*System, error) {
	if cfg.MachineName == "" {
		cfg.MachineName = "client"
	}
	if cfg.Remote == (slremote.Config{}) {
		cfg.Remote = slremote.DefaultConfig()
	}
	if cfg.Local == (sllocal.Config{}) {
		cfg.Local = sllocal.DefaultConfig()
	}
	machine, err := sgx.NewMachine(sgx.MachineConfig{
		Name:     cfg.MachineName,
		EPCBytes: cfg.EPCBytes,
		Model:    cfg.Model,
	})
	if err != nil {
		return nil, fmt.Errorf("core: machine: %w", err)
	}
	platform, err := attest.NewPlatform(cfg.MachineName, machine)
	if err != nil {
		return nil, fmt.Errorf("core: platform: %w", err)
	}
	// Trust the SL-Local enclave's measurement so remote attestation at
	// init succeeds.
	service := attest.NewService()
	service.RegisterPlatform(platform)
	service.TrustMeasurement(sgx.MeasurementOf(sllocal.EnclaveCodeIdentity))

	remote, err := slremote.NewServer(cfg.Remote, service)
	if err != nil {
		return nil, fmt.Errorf("core: SL-Remote: %w", err)
	}
	var api sllocal.RemoteAPI = remote
	if cfg.Network != nil {
		api = cfg.Network.Wrap(remote, machine)
	}
	local, err := sllocal.New(cfg.Local, sllocal.Deps{Machine: machine, Platform: platform, Remote: api})
	if err != nil {
		return nil, fmt.Errorf("core: SL-Local: %w", err)
	}
	sys := &System{
		machine:  machine,
		platform: platform,
		remote:   remote,
		local:    local,
		apps:     make(map[string]*App),
	}
	if err := sys.Restart(); err != nil {
		return nil, err
	}
	return sys, nil
}

// Machine returns the simulated client machine.
func (s *System) Machine() *sgx.Machine { return s.machine }

// Platform returns the machine's attestation platform.
func (s *System) Platform() *attest.Platform { return s.platform }

// Remote returns the license server.
func (s *System) Remote() *slremote.Server { return s.remote }

// Local returns the SL-Local service.
func (s *System) Local() *sllocal.Service { return s.local }

// RegisterLicense registers a license with the server.
func (s *System) RegisterLicense(id string, kind lease.Kind, totalGCL int64) error {
	return s.remote.RegisterLicense(id, kind, totalGCL)
}

// LaunchApp creates a protected application: its secure-region enclave and
// SL-Manager.
func (s *System) LaunchApp(name string) (*App, error) {
	if name == "" {
		return nil, errors.New("core: empty app name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.apps[name]; dup {
		return nil, fmt.Errorf("core: app %q already launched", name)
	}
	if !s.running {
		return nil, errors.New("core: SL-Local is not running")
	}
	enclave, err := s.machine.CreateEnclave(name+"-secure", []byte("app-code/"+name), 0)
	if err != nil {
		return nil, fmt.Errorf("core: app enclave: %w", err)
	}
	manager, err := slmanager.New(enclave, s.local)
	if err != nil {
		enclave.Destroy()
		return nil, fmt.Errorf("core: SL-Manager: %w", err)
	}
	app := &App{name: name, enclave: enclave, manager: manager}
	s.apps[name] = app
	return app, nil
}

// App returns a launched application by name, or nil.
func (s *System) App(name string) *App {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.apps[name]
}

// Shutdown gracefully stops SL-Local (committing and escrowing the lease
// tree) and destroys all application enclaves. The System can be restarted
// with Restart.
func (s *System) Shutdown() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.running {
		return errors.New("core: already shut down")
	}
	if err := s.local.Shutdown(); err != nil {
		return err
	}
	s.teardownAppsLocked()
	s.running = false
	return nil
}

// Crash simulates an abrupt machine failure: nothing is committed and
// every lease held locally will be forfeited at the next restart.
func (s *System) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.local.Crash()
	s.running = false
	s.teardownAppsLocked()
}

// Restart starts SL-Local's next incarnation over the persisted untrusted
// state (restoring the lease tree after a graceful shutdown; starting
// fresh after a crash). NewSystem starts the first one the same way.
func (s *System) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.running {
		return errors.New("core: system is running")
	}
	if err := s.local.Init(); err != nil {
		return fmt.Errorf("core: initializing SL-Local: %w", err)
	}
	s.running = true
	return nil
}

// Running reports whether SL-Local is up.
func (s *System) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

func (s *System) teardownAppsLocked() {
	for name, app := range s.apps {
		app.enclave.Destroy()
		delete(s.apps, name)
	}
}

// Name returns the application name.
func (a *App) Name() string { return a.name }

// Enclave returns the application's secure-region enclave.
func (a *App) Enclave() *sgx.Enclave { return a.enclave }

// Manager returns the application's SL-Manager.
func (a *App) Manager() *slmanager.Manager { return a.manager }

// Guard registers a key function under a license.
func (a *App) Guard(function, licenseID string) {
	a.manager.Guard(function, licenseID)
}

// Execute runs a guarded key function inside the enclave after lease
// authorization — the only path to protected logic.
func (a *App) Execute(function string, fn func() error) error {
	return a.manager.Execute(function, fn)
}

// Authorize obtains an execution grant for a license without running a
// function (for callers that gate larger regions manually).
func (a *App) Authorize(licenseID string) error {
	return a.manager.Authorize(licenseID)
}
