package online

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/train"
	"repro/internal/unet"
	"repro/internal/volume"
)

// Promoter is the serving side of the loop: an in-memory hot swap that
// atomically replaces the live weights. *serve.Server satisfies it.
type Promoter interface {
	SwapModel(m serve.Model) error
}

// Config tunes the continual-learning controller.
type Config struct {
	// Net/Loss/Optimizer/LR/Workers build the shadow trainer (required:
	// Net, Loss, Optimizer, positive LR).
	Net       unet.Config
	Loss      string
	Optimizer string
	LR        float64
	Workers   int

	// Base is the standing training set every generation mixes with the
	// replay buffer (may be empty — then generations train on feedback
	// alone). Holdout is the fixed evaluation set the gate scores shadow
	// and live on (required, disjoint from Base by construction).
	Base    []*volume.Sample
	Holdout []*volume.Sample

	// Buffer is the feedback replay buffer (required).
	Buffer *ReplayBuffer

	// GenEpochs is the number of fine-tuning epochs per generation
	// (default 1). MinFeedback is the number of new feedback samples that
	// must arrive before a generation trains (default 1).
	GenEpochs   int
	MinFeedback int
	// GlobalBatch is the shadow trainer's batch size (default 1).
	GlobalBatch int

	// Margin is the holdout-Dice improvement the shadow must exceed for
	// promotion: shadow > live + Margin. RollbackMargin is how far the
	// mean post-promotion feedback Dice may fall below the promoted
	// generation's own gate Dice before the controller rolls back to the
	// last good generation (default 0.05).
	Margin         float64
	RollbackMargin float64

	// Dir, when non-empty, holds the controller's state file — the
	// buffer, the training session and the live/last-good models, rewritten
	// whole at every feedback, generation outcome and Close — so a
	// restarted controller resumes from the last commit.
	Dir string

	// Seed drives the training shuffle.
	Seed int64

	// Interval is the background loop's tick period (default 2s).
	Interval time.Duration

	// Tracer receives generation lifecycle events; Telemetry receives the
	// online_* metric families. Both optional.
	Tracer    *telemetry.Tracer
	Telemetry *telemetry.Registry

	// Promoter receives promoted (and rolled-back) models (required).
	Promoter Promoter
}

// Stats is a point-in-time controller snapshot, embedded into the serving
// process's /v1/stats payload.
type Stats struct {
	Generation  int64
	Feedback    uint64
	BufferLen   int
	BufferSeen  int64
	Promotions  uint64
	Rejections  uint64
	Rollbacks   uint64
	ShadowDice  float64
	LiveDice    float64
	InputDrift  float64
	HasLastGood bool
}

// Controller owns the shadow model, its long-lived training session, the
// eval gate and the promotion/rollback state machine. One Controller per
// serving process; all methods are safe for concurrent use.
type Controller struct {
	mu  sync.Mutex
	cfg Config

	sess   *train.Session
	shadow *unet.UNet // the session strategy's model, which the session trains
	live   *unet.UNet // mirror of the currently served weights, scored by Infer
	last   *unet.UNet // last-good generation (rollback target), scored by Infer

	gen         int64
	hasLast     bool
	promoDice   float64 // the promoted generation's gate Dice — the rollback anchor
	fbSinceGen  int     // feedback arrivals since the last generation
	fbDiceSum   float64 // live-vs-corrected Dice since the last promotion
	fbDiceCount int

	shadowDice, liveDice, inputDrift float64

	// evalFn scores a model on a sample set (tests stub the gate);
	// probeFn scores one live prediction against a corrected mask.
	evalFn  func(m *unet.UNet, set []*volume.Sample) (float64, error)
	probeFn func(m *unet.UNet, s *volume.Sample) (dice, drift float64, err error)

	feedback, generations, promotions, rejections, rollbacks *telemetry.Counter

	resumed bool // NewController restored the state file

	stop chan struct{}
	done chan struct{}
}

// stateFile is the one file under Config.Dir holding the controller's
// state, replaced whole at every commit, so a crash leaves the previous
// commit or the new one. oldLayoutFile is the first of the four files an
// earlier layout kept there instead.
const (
	stateFile     = "online.ckpt"
	oldLayoutFile = "buffer.ckpt"
)

// Controller state keys persisted inside the buffer's sample stream.
const (
	keyGen      = "ctrl:gen"
	keyHasLast  = "ctrl:haslast"
	keyLastDice = "ctrl:lastdice"
	keyFbSince  = "ctrl:fbsince"
	keyFbSum    = "ctrl:fbsum"
	keyFbCount  = "ctrl:fbcount"
	keyBudget   = "ctrl:budget"
)

// NewController validates the configuration, builds the shadow trainer and
// the live mirror, restores persisted state when Dir holds a previous run,
// and installs the current live model into the Promoter so serving and
// controller agree on generation zero.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Buffer == nil {
		return nil, fmt.Errorf("online: nil replay buffer")
	}
	if cfg.Promoter == nil {
		return nil, fmt.Errorf("online: nil promoter")
	}
	if len(cfg.Holdout) == 0 {
		return nil, fmt.Errorf("online: empty holdout set — the eval gate needs one")
	}
	if cfg.GenEpochs <= 0 {
		cfg.GenEpochs = 1
	}
	if cfg.MinFeedback <= 0 {
		cfg.MinFeedback = 1
	}
	if cfg.GlobalBatch <= 0 {
		cfg.GlobalBatch = 1
	}
	if cfg.Margin < 0 {
		return nil, fmt.Errorf("online: negative promotion margin %g", cfg.Margin)
	}
	if cfg.RollbackMargin <= 0 {
		cfg.RollbackMargin = 0.05
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}

	single, err := train.NewSingle(train.SingleConfig{
		Net: cfg.Net, Loss: cfg.Loss, Optimizer: cfg.Optimizer,
		LR: cfg.LR, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	sess, err := train.NewSession(train.Config{
		Strategy:    single,
		Epochs:      0, // extended per generation
		GlobalBatch: cfg.GlobalBatch,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	evalCfg := cfg.Net
	evalCfg.Workers = cfg.Workers
	live, err := unet.New(evalCfg)
	if err != nil {
		return nil, err
	}
	last, err := unet.New(evalCfg)
	if err != nil {
		return nil, err
	}

	c := &Controller{
		cfg:    cfg,
		sess:   sess,
		shadow: single.Model(),
		live:   live,
		last:   last,
	}
	c.evalFn = c.evalSet
	c.probeFn = c.probe
	c.initTelemetry()

	if c.resumed, err = c.restore(); err != nil {
		return nil, err
	}
	if !c.resumed {
		// Generation zero: the live mirror starts from the shadow's
		// initial weights.
		copyModel(c.live, c.shadow)
	}
	if err := cfg.Promoter.SwapModel(c.live); err != nil {
		return nil, fmt.Errorf("online: installing generation %d: %w", c.gen, err)
	}
	return c, nil
}

// initTelemetry registers the online_* metric families.
func (c *Controller) initTelemetry() {
	r := c.cfg.Telemetry
	if r == nil {
		r = telemetry.NewRegistry() // throwaway: keeps call sites nil-free
	}
	c.feedback = r.Counter("online_feedback_total", "Feedback segmentations ingested.")
	c.generations = r.Counter("online_generations_total", "Shadow fine-tuning generations trained.")
	c.promotions = r.Counter("online_promotions_total", "Shadow models promoted to live.")
	c.rejections = r.Counter("online_rejections_total", "Shadow generations rejected by the eval gate.")
	c.rollbacks = r.Counter("online_rollbacks_total", "Automatic rollbacks to the last good generation.")
	r.GaugeFunc("online_generation", "Current controller generation.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.gen)
	})
	r.GaugeFunc("online_shadow_dice", "Holdout Dice of the shadow model at the last eval gate.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.shadowDice
	})
	r.GaugeFunc("online_live_dice", "Holdout Dice of the live model at the last eval gate.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.liveDice
	})
	r.GaugeFunc("online_input_drift", "Symmetric Dice distance between the live prediction and the latest corrected mask.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.inputDrift
	})
	r.GaugeFunc("online_buffer_len", "Samples resident in the replay buffer.", func() float64 {
		return float64(c.cfg.Buffer.Len())
	})
}

// event emits a generation lifecycle record on the trace stream.
func (c *Controller) event(name string, gen int64, kv ...string) {
	if c.cfg.Tracer == nil {
		return
	}
	attrs := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		attrs[kv[i]] = kv[i+1]
	}
	c.cfg.Tracer.Emit(telemetry.Record{Kind: telemetry.KindEvent, Name: name, Gen: gen, Attrs: attrs})
}

// Feedback ingests one corrected segmentation: the sample is validated
// against the model geometry, probed against the live model (live Dice and
// input drift gauges), admitted to the replay buffer, and — when a state
// directory is configured — persisted.
func (c *Controller) Feedback(s *volume.Sample) error {
	if err := c.validate(s); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dice, drift, err := c.probeFn(c.live, s)
	if err != nil {
		return err
	}
	c.cfg.Buffer.Add(s)
	c.fbSinceGen++
	c.fbDiceSum += dice
	c.fbDiceCount++
	c.inputDrift = drift
	c.feedback.Inc()
	c.event("feedback", c.gen,
		"name", s.Name,
		"live_dice", fmt.Sprintf("%.4f", dice),
		"drift", fmt.Sprintf("%.4f", drift))
	return c.save()
}

// validate checks a feedback sample against the serving geometry.
func (c *Controller) validate(s *volume.Sample) error {
	if s == nil || s.Input == nil || s.Mask == nil {
		return fmt.Errorf("online: feedback needs both input and mask")
	}
	is, ms := s.Input.Shape(), s.Mask.Shape()
	if len(is) != 4 || len(ms) != 4 {
		return fmt.Errorf("online: feedback wants [C,D,H,W] input and [1,D,H,W] mask, got %v / %v", is, ms)
	}
	if is[0] != c.cfg.Net.InChannels {
		return fmt.Errorf("online: feedback has %d channels, model wants %d", is[0], c.cfg.Net.InChannels)
	}
	if ms[0] != 1 {
		return fmt.Errorf("online: feedback mask wants 1 channel, got %d", ms[0])
	}
	for i := 1; i < 4; i++ {
		if is[i] != ms[i] {
			return fmt.Errorf("online: feedback input %v and mask %v disagree spatially", is, ms)
		}
	}
	mv := c.cfg.Net.MinVolume()
	for _, d := range is[1:] {
		if d%mv != 0 {
			return fmt.Errorf("online: feedback spatial dims %v must be divisible by %d", is[1:], mv)
		}
	}
	for _, v := range s.Mask.Data() {
		if v < 0 || v > 1 {
			return fmt.Errorf("online: feedback mask value %g outside [0,1]", v)
		}
	}
	return nil
}

// probe scores the live model on one corrected sample.
func (c *Controller) probe(m *unet.UNet, s *volume.Sample) (float64, float64, error) {
	inputs, masks, err := volume.Batch([]*volume.Sample{s})
	if err != nil {
		return 0, 0, err
	}
	pred := m.Infer(inputs)
	dice := metrics.DiceScore(pred, masks)
	drift := metrics.Drift(pred, masks)
	return dice, drift, nil
}

// evalSet scores a model's mean Dice over a sample set.
func (c *Controller) evalSet(m *unet.UNet, set []*volume.Sample) (float64, error) {
	var sum float64
	for _, s := range set {
		inputs, masks, err := volume.Batch([]*volume.Sample{s})
		if err != nil {
			return 0, err
		}
		sum += metrics.DiceScore(m.Infer(inputs), masks)
	}
	return sum / float64(len(set)), nil
}

// Tick runs one controller cycle synchronously: rollback check, then — if
// enough feedback accumulated — one shadow generation through the eval
// gate. It reports whether a generation trained. The background loop calls
// it every Interval; tests and the smoke harness call it directly.
func (c *Controller) Tick() (trained bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	rolled, err := c.maybeRollback()
	if err != nil {
		return false, err
	}
	if rolled {
		// A rollback ends the cycle: the feedback that triggered it sits
		// in the replay buffer, and training on it right away would risk
		// re-promoting the regression it just reverted.
		return false, nil
	}
	if c.fbSinceGen < c.cfg.MinFeedback {
		return false, nil
	}

	c.gen++
	gen := c.gen
	c.fbSinceGen = 0

	mixed := append(append([]*volume.Sample{}, c.cfg.Base...), c.cfg.Buffer.Snapshot()...)
	c.event("shadow_train", gen,
		"base", fmt.Sprintf("%d", len(c.cfg.Base)),
		"replay", fmt.Sprintf("%d", c.cfg.Buffer.Len()),
		"epochs", fmt.Sprintf("%d", c.cfg.GenEpochs))
	c.sess.ClearStop()
	if err := c.sess.ExtendEpochs(c.cfg.GenEpochs); err != nil {
		return false, err
	}
	if _, err := c.sess.Fit(mixed, nil); err != nil {
		return false, fmt.Errorf("online: generation %d: %w", gen, err)
	}
	c.generations.Inc()

	shadowDice, err := c.evalFn(c.shadow, c.cfg.Holdout)
	if err != nil {
		return true, err
	}
	liveDice, err := c.evalFn(c.live, c.cfg.Holdout)
	if err != nil {
		return true, err
	}
	c.shadowDice, c.liveDice = shadowDice, liveDice
	promote := shadowDice > liveDice+c.cfg.Margin
	c.event("eval_gate", gen,
		"shadow_dice", fmt.Sprintf("%.4f", shadowDice),
		"live_dice", fmt.Sprintf("%.4f", liveDice),
		"margin", fmt.Sprintf("%.4f", c.cfg.Margin),
		"promote", fmt.Sprintf("%t", promote))

	if !promote {
		c.rejections.Inc()
		c.event("reject", gen,
			"shadow_dice", fmt.Sprintf("%.4f", shadowDice),
			"live_dice", fmt.Sprintf("%.4f", liveDice))
		return true, c.save()
	}

	// Promote: demote live to last-good, mirror the shadow weights into
	// the live model, and hot-swap them into the server.
	copyModel(c.last, c.live)
	c.hasLast = true
	c.promoDice = shadowDice
	copyModel(c.live, c.shadow)
	if err := c.cfg.Promoter.SwapModel(c.live); err != nil {
		return true, fmt.Errorf("online: promoting generation %d: %w", gen, err)
	}
	c.fbDiceSum, c.fbDiceCount = 0, 0
	c.promotions.Inc()
	c.event("promote", gen,
		"shadow_dice", fmt.Sprintf("%.4f", shadowDice),
		"live_dice", fmt.Sprintf("%.4f", liveDice))
	return true, c.save()
}

// maybeRollback reverts to the last good generation when the mean live
// Dice measured on post-promotion feedback falls more than RollbackMargin
// below the Dice the promoted generation scored at its eval gate — the
// quality the promotion promised. Called with c.mu held.
func (c *Controller) maybeRollback() (bool, error) {
	if !c.hasLast || c.fbDiceCount < c.cfg.MinFeedback {
		return false, nil
	}
	mean := c.fbDiceSum / float64(c.fbDiceCount)
	if mean >= c.promoDice-c.cfg.RollbackMargin {
		return false, nil
	}
	copyModel(c.live, c.last)
	copyModel(c.shadow, c.last) // the next generation fine-tunes from the good weights
	if err := c.cfg.Promoter.SwapModel(c.live); err != nil {
		return false, fmt.Errorf("online: rollback at generation %d: %w", c.gen, err)
	}
	c.rollbacks.Inc()
	c.event("rollback", c.gen,
		"feedback_dice", fmt.Sprintf("%.4f", mean),
		"promoted_dice", fmt.Sprintf("%.4f", c.promoDice))
	c.hasLast = false
	c.fbDiceSum, c.fbDiceCount = 0, 0
	return true, c.save()
}

// Stats returns a snapshot for /v1/stats.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Generation:  c.gen,
		Feedback:    c.feedback.Value(),
		BufferLen:   c.cfg.Buffer.Len(),
		BufferSeen:  c.cfg.Buffer.Seen(),
		Promotions:  c.promotions.Value(),
		Rejections:  c.rejections.Value(),
		Rollbacks:   c.rollbacks.Value(),
		ShadowDice:  c.shadowDice,
		LiveDice:    c.liveDice,
		InputDrift:  c.inputDrift,
		HasLastGood: c.hasLast,
	}
}

// Generation returns the current generation counter.
func (c *Controller) Generation() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Resumed reports whether NewController restored the controller from the
// state file under Config.Dir.
func (c *Controller) Resumed() bool { return c.resumed }

// Shadow exposes the shadow model (checkpoint bootstrap in cmd/servemis).
func (c *Controller) Shadow() *unet.UNet { return c.shadow }

// SyncLive mirrors the shadow weights into the live model and installs
// them in the Promoter — the bootstrap path after loading a pretrained
// checkpoint into the shadow.
func (c *Controller) SyncLive() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	copyModel(c.live, c.shadow)
	return c.cfg.Promoter.SwapModel(c.live)
}

// Start launches the background loop; Close stops it and persists state.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil {
		return
	}
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go c.loop(c.stop, c.done)
}

func (c *Controller) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if _, err := c.Tick(); err != nil {
				c.event("tick_error", c.Generation(), "error", err.Error())
			}
		}
	}
}

// Close stops the background loop (if running) and persists final state.
func (c *Controller) Close() error {
	c.mu.Lock()
	stop, done := c.stop, c.done
	c.stop, c.done = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.save()
}

// copyModel copies parameters and auxiliary (batch-norm) state from src
// into dst. The two models must share one architecture.
func copyModel(dst, src *unet.UNet) {
	sp, dp := src.Params(), dst.Params()
	for i, p := range sp {
		dp[i].Value.CopyFrom(p.Value)
	}
	srcAux := src.AuxState()
	for name, d := range dst.AuxState() {
		copy(d, srcAux[name])
	}
}

// save commits the controller's state to Dir as one file (see writeState).
// Called with c.mu held; a no-op without a state directory.
func (c *Controller) save() error {
	if c.cfg.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.cfg.Dir, 0o755); err != nil {
		return err
	}
	return ckpt.WriteFileAtomic(filepath.Join(c.cfg.Dir, stateFile), c.writeState)
}

// writeState writes the state file: the replay buffer's sample stream,
// carrying the controller scalars, then the session checkpoint, the live
// model and, when there is one, the last-good model.
func (c *Controller) writeState(w io.Writer) error {
	has := 0.0
	if c.hasLast {
		has = 1
	}
	err := c.cfg.Buffer.Save(w, map[string][]float64{
		keyGen:      {float64(c.gen)},
		keyHasLast:  {has},
		keyLastDice: {c.promoDice},
		keyFbSince:  {float64(c.fbSinceGen)},
		keyFbSum:    {c.fbDiceSum},
		keyFbCount:  {float64(c.fbDiceCount)},
		keyBudget:   {float64(c.sess.EpochBudget())},
	})
	if err != nil {
		return err
	}
	if err := c.sess.SaveCheckpoint(w); err != nil {
		return err
	}
	if err := ckpt.Save(w, c.live, nil); err != nil {
		return err
	}
	if !c.hasLast {
		return nil
	}
	return ckpt.Save(w, c.last, nil)
}

// restore loads the state file from Dir. Returns false when there is
// nothing to resume.
func (c *Controller) restore() (bool, error) {
	dir := c.cfg.Dir
	if dir == "" {
		return false, nil
	}
	f, err := os.Open(filepath.Join(dir, stateFile))
	if os.IsNotExist(err) {
		if _, err := os.Stat(filepath.Join(dir, oldLayoutFile)); err == nil {
			return false, fmt.Errorf("online: %s holds the old four-file state layout (buffer.ckpt, session.ckpt, live.ckpt, lastgood.ckpt), which is no longer read; move it aside to start afresh", dir)
		}
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("online: %w", err)
	}
	defer f.Close()
	if err := c.readState(f); err != nil {
		return false, fmt.Errorf("online: resuming from %s: %w", f.Name(), err)
	}
	c.event("resume", c.gen,
		"buffer", fmt.Sprintf("%d", c.cfg.Buffer.Len()),
		"epoch", fmt.Sprintf("%d", c.sess.Epoch()))
	return true, nil
}

// readState restores the controller from a state file written by
// writeState. On error the controller is left part-restored.
func (c *Controller) readState(r io.Reader) error {
	extra, err := c.cfg.Buffer.Load(r)
	if err != nil {
		return err
	}
	c.gen = int64(scalar(extra, keyGen))
	c.hasLast = scalar(extra, keyHasLast) != 0
	c.promoDice = scalar(extra, keyLastDice)
	c.fbSinceGen = int(scalar(extra, keyFbSince))
	c.fbDiceSum = scalar(extra, keyFbSum)
	c.fbDiceCount = int(scalar(extra, keyFbCount))

	// The fresh session starts with a zero epoch budget; the checkpoint's
	// cursor must fit under the persisted budget before loading.
	if budget := int(scalar(extra, keyBudget)); budget > 0 {
		if err := c.sess.ExtendEpochs(budget); err != nil {
			return err
		}
	}
	if err := c.sess.LoadCheckpoint(r); err != nil {
		return fmt.Errorf("session: %w", err)
	}
	if _, err := ckpt.Load(r, c.live); err != nil {
		return fmt.Errorf("live model: %w", err)
	}
	if c.hasLast {
		if _, err := ckpt.Load(r, c.last); err != nil {
			return fmt.Errorf("last-good model: %w", err)
		}
	}
	return nil
}
