package mapreduce

// OffersCountable reports whether the driver's heartbeats may count idle
// offers instead of making them, as decided from its current scheduler and
// configuration.
func (d *Driver) OffersCountable() bool { return d.offersCountable() }

// AdoptedConfig returns the configuration the driver runs under.
func (d *Driver) AdoptedConfig() Config { return d.cfg }

// Defaulted returns cfg with the defaults NewDriver and Reset fill in.
func Defaulted(cfg Config) Config {
	cfg.setDefaults()
	return cfg
}

// PlacementReused reports whether the driver's last run restored the HDFS
// placement of the run before it instead of drawing one.
func (d *Driver) PlacementReused() bool { return d.ns.Reused() }
