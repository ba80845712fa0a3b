package mpisim

// RunEngine runs the event engine on a validated run, whether or not the
// lockstep solver would compute it, so the engine, the shard driver and
// their allocation gates stay under test on lockstep programs too.
func RunEngine(cfg Config, programs []Program) (*Result, error) {
	shapes, _, err := validate(cfg, programs, true)
	if err != nil {
		return nil, err
	}
	return runEngine(cfg, programs, shapes)
}
