// Package fsfactory constructs every file system in the repository over
// a fresh simulated device, so tests, workload generators and the
// benchmark harness can iterate "for each FS" the way the paper's
// evaluation does.
package fsfactory

import (
	"fmt"

	"trio/internal/baseline/kernfs"
	"trio/internal/baseline/splitfs"
	"trio/internal/baseline/strata"
	"trio/internal/baseline/vfs"
	"trio/internal/controller"
	"trio/internal/delegation"
	"trio/internal/fsapi"
	"trio/internal/libfs"
	"trio/internal/nvm"
)

// Config sizes the simulated machine for one experiment.
type Config struct {
	// Nodes / PagesPerNode define the device geometry.
	Nodes        int
	PagesPerNode int
	// CPUs sizes per-CPU sharding in all FSes.
	CPUs int
	// Cost enables the calibrated cost model (benchmarks); tests leave
	// it off for speed and determinism.
	Cost bool
	// WorkersPerNode sizes delegation pools (ArckFS, OdinFS).
	WorkersPerNode int
	// VerifyReads enables read-path CRC verification in the ArckFS
	// LibFS (ISSUE 5); ignored by every other FS.
	VerifyReads bool
}

func (c *Config) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.PagesPerNode <= 0 {
		c.PagesPerNode = 16384
	}
	if c.CPUs <= 0 {
		c.CPUs = 8
	}
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 4
	}
}

// Names lists every constructible file system, in the order the paper's
// figures tend to present them.
func Names() []string {
	return []string{
		"ext4", "ext4-raid0", "pmfs", "nova", "winefs", "odinfs",
		"splitfs", "strata", "arckfs", "arckfs-nd",
	}
}

// Instance bundles a mounted FS with everything needing cleanup.
type Instance struct {
	fsapi.FS
	Dev  *nvm.Device
	Ctl  *controller.Controller // non-nil for Trio-based FSes
	Arck *libfs.FS              // non-nil for arckfs / arckfs-nd
	pool *delegation.Pool
}

// Close tears the instance down.
func (i *Instance) Close() error {
	err := i.FS.Close()
	if i.pool != nil {
		i.pool.Close()
	}
	return err
}

// New mounts the named file system on a fresh device.
func New(name string, cfg Config) (*Instance, error) {
	cfg.fill()
	devCfg := nvm.Config{Nodes: cfg.Nodes, PagesPerNode: cfg.PagesPerNode}
	if cfg.Cost {
		devCfg.Cost = nvm.DefaultCostModel()
	}
	dev, err := nvm.NewDevice(devCfg)
	if err != nil {
		return nil, err
	}
	return NewOnDevice(name, dev, cfg)
}

// NewOnDevice mounts the named file system on an existing device.
func NewOnDevice(name string, dev *nvm.Device, cfg Config) (*Instance, error) {
	cfg.fill()
	switch name {
	case "ext4", "ext4-raid0", "pmfs", "nova", "winefs", "odinfs":
		var v kernfs.Variant
		switch name {
		case "ext4":
			v = kernfs.Ext4()
		case "ext4-raid0":
			v = kernfs.Ext4RAID0()
		case "pmfs":
			v = kernfs.PMFS()
		case "nova":
			v = kernfs.NOVA()
		case "winefs":
			v = kernfs.WineFS()
		case "odinfs":
			v = kernfs.OdinFS()
		}
		fs, err := vfs.New(dev, v, cfg.CPUs)
		if err != nil {
			return nil, err
		}
		return &Instance{FS: fs, Dev: dev}, nil
	case "splitfs":
		fs, err := splitfs.New(dev, cfg.CPUs)
		if err != nil {
			return nil, err
		}
		return &Instance{FS: fs, Dev: dev}, nil
	case "strata":
		fs, err := strata.New(dev, cfg.CPUs)
		if err != nil {
			return nil, err
		}
		return &Instance{FS: fs, Dev: dev}, nil
	case "arckfs", "arckfs-nd":
		ctl, err := controller.New(dev, controller.Options{CPUs: cfg.CPUs})
		if err != nil {
			return nil, err
		}
		lcfg := libfs.Config{CPUs: cfg.CPUs, VerifyReads: cfg.VerifyReads}
		var pool *delegation.Pool
		if name == "arckfs" {
			pool = delegation.NewPool(dev, cfg.WorkersPerNode)
			lcfg.Pool = pool
			lcfg.Stripe = dev.Nodes() > 1
		}
		fs, err := libfs.New(ctl.Register(1000, 1000, 0, 0), lcfg)
		if err != nil {
			if pool != nil {
				pool.Close()
			}
			return nil, err
		}
		return &Instance{FS: fs, Dev: dev, Ctl: ctl, Arck: fs, pool: pool}, nil
	}
	return nil, fmt.Errorf("fsfactory: unknown file system %q (known: %v)", name, Names())
}
