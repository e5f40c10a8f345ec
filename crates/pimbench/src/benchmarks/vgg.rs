//! VGG-13/16/19 inference on PIM (Table I, Neural Network).
//!
//! The network is decomposed into per-layer kernels exactly as the paper
//! describes (§VIII): convolutions run on PIM as weight-stationary
//! scalar-multiply/accumulate sweeps over whole feature maps (the
//! strided shifted-map preparation is host work charged as data
//! movement), ReLU is `max_scalar`, max-pooling is an element-wise `max`
//! tree over phase-split maps, dense layers are mul + reduction GEMVs,
//! and softmax plus final aggregation run on the host.
//!
//! Scaling substitutions (DESIGN.md #6): 32×32 inputs, channel counts
//! divided by 16, and quantized integer arithmetic (weights in [-2, 2],
//! activations right-shifted 4 bits after each conv) — the layer
//! *structure* (2-2-2-2-2 / 2-2-3-3-3 / 2-2-4-4-4 conv blocks + 3 dense
//! layers) is exactly VGG-13/16/19.

use pim_baseline::WorkloadProfile;
use pimeval::{DataType, Device, ObjId};

use crate::common::{
    charge_host, finish, BenchError, BenchSpec, Benchmark, Domain, ExecType, Params, RunOutcome,
    SplitMix64,
};

/// Which VGG variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VggVariant {
    /// VGG-13: conv blocks of 2-2-2-2-2.
    Vgg13,
    /// VGG-16: conv blocks of 2-2-3-3-3.
    Vgg16,
    /// VGG-19: conv blocks of 2-2-4-4-4.
    Vgg19,
}

impl VggVariant {
    fn name(&self) -> &'static str {
        match self {
            VggVariant::Vgg13 => "VGG-13",
            VggVariant::Vgg16 => "VGG-16",
            VggVariant::Vgg19 => "VGG-19",
        }
    }

    /// (output channels, conv layers) per block, channel counts /16.
    fn blocks(&self) -> [(usize, usize); 5] {
        let convs = match self {
            VggVariant::Vgg13 => [2, 2, 2, 2, 2],
            VggVariant::Vgg16 => [2, 2, 3, 3, 3],
            VggVariant::Vgg19 => [2, 2, 4, 4, 4],
        };
        [
            (4, convs[0]),
            (8, convs[1]),
            (16, convs[2]),
            (32, convs[3]),
            (32, convs[4]),
        ]
    }
}

const SIDE: usize = 32;
const BATCH: usize = 2;
const FC_HIDDEN: usize = 64;
const CLASSES: usize = 10;
const SHIFT: u32 = 4;
/// Saturation bound after each conv layer — keeps every downstream
/// product inside `i32` so host and device arithmetic agree exactly.
const CLAMP: i32 = 65_535;

/// Feature maps: one object per channel, `BATCH × side × side` elements.
struct Maps {
    channels: Vec<ObjId>,
    side: usize,
}

/// Host-side mirror used for verification.
type HostMaps = Vec<Vec<i32>>;

/// Weights for one network instantiation.
struct Weights {
    /// conv[layer][cout][cin][ky*3+kx]
    conv: Vec<Vec<Vec<[i32; 9]>>>,
    /// fc[layer][out][in]
    fc: Vec<Vec<Vec<i32>>>,
}

fn gen_weights(variant: VggVariant, rng: &mut SplitMix64) -> Weights {
    let mut conv = Vec::new();
    let mut cin = 3;
    for (cout, n_convs) in variant.blocks() {
        for _ in 0..n_convs {
            let layer: Vec<Vec<[i32; 9]>> = (0..cout)
                .map(|_| {
                    (0..cin)
                        .map(|_| std::array::from_fn(|_| rng.below(5) as i32 - 2))
                        .collect()
                })
                .collect();
            conv.push(layer);
            cin = cout;
        }
    }
    let dims = [
        (cin, FC_HIDDEN),
        (FC_HIDDEN, FC_HIDDEN),
        (FC_HIDDEN, CLASSES),
    ];
    let fc = dims
        .iter()
        .map(|&(i, o)| (0..o).map(|_| rng.i32_vec(i, -2, 3)).collect())
        .collect();
    Weights { conv, fc }
}

/// Host reference: shifted zero-padded map (per batch image).
fn host_shift(map: &[i32], side: usize, dy: i32, dx: i32) -> Vec<i32> {
    let mut out = vec![0i32; map.len()];
    let per = side * side;
    for (b, img) in map.chunks(per).enumerate() {
        for y in 0..side as i32 {
            for x in 0..side as i32 {
                let (sy, sx) = (y + dy, x + dx);
                if (0..side as i32).contains(&sy) && (0..side as i32).contains(&sx) {
                    out[b * per + (y as usize) * side + x as usize] =
                        img[(sy as usize) * side + sx as usize];
                }
            }
        }
    }
    out
}

fn host_conv_layer(input: &HostMaps, side: usize, weights: &[Vec<[i32; 9]>]) -> HostMaps {
    weights
        .iter()
        .map(|per_cin| {
            let mut acc = vec![0i32; input[0].len()];
            for (cin, k) in per_cin.iter().enumerate() {
                for (ki, &w) in k.iter().enumerate() {
                    if w == 0 {
                        continue;
                    }
                    let (dy, dx) = ((ki / 3) as i32 - 1, (ki % 3) as i32 - 1);
                    let shifted = host_shift(&input[cin], side, dy, dx);
                    for (a, s) in acc.iter_mut().zip(&shifted) {
                        *a = a.wrapping_add(s.wrapping_mul(w));
                    }
                }
            }
            acc.iter()
                .map(|&v| ((v.max(0)) >> SHIFT).min(CLAMP))
                .collect()
        })
        .collect()
}

fn host_pool(input: &HostMaps, side: usize) -> HostMaps {
    let half = side / 2;
    let per = side * side;
    input
        .iter()
        .map(|map| {
            let mut out = Vec::with_capacity(map.len() / 4);
            for b in 0..BATCH {
                for y in 0..half {
                    for x in 0..half {
                        let i = b * per + 2 * y * side + 2 * x;
                        out.push(
                            map[i]
                                .max(map[i + 1])
                                .max(map[i + side])
                                .max(map[i + side + 1]),
                        );
                    }
                }
            }
            out
        })
        .collect()
}

/// PIM conv layer: host prepares shifted maps (data movement), PIM does
/// all multiply-accumulates, ReLU and rescale.
fn pim_conv_layer(
    dev: &mut Device,
    input: &Maps,
    host_input: &HostMaps,
    weights: &[Vec<[i32; 9]>],
) -> Result<Maps, BenchError> {
    let side = input.side;
    // Shifted input maps, uploaded once per (cin, ky, kx).
    let mut shifted: Vec<Vec<ObjId>> = Vec::with_capacity(host_input.len());
    for map in host_input {
        let mut per_k = Vec::with_capacity(9);
        for ki in 0..9 {
            let (dy, dx) = ((ki / 3) - 1, (ki % 3) - 1);
            per_k.push(dev.alloc_vec(&host_shift(map, side, dy, dx))?);
        }
        shifted.push(per_k);
    }
    let mut out_channels = Vec::with_capacity(weights.len());
    let tmp = dev.alloc_associated(input.channels[0], DataType::Int32)?;
    for per_cin in weights {
        let acc = dev.alloc_associated(input.channels[0], DataType::Int32)?;
        dev.broadcast(acc, 0)?;
        for (cin, k) in per_cin.iter().enumerate() {
            for (ki, &w) in k.iter().enumerate() {
                if w == 0 {
                    continue;
                }
                dev.mul_scalar(shifted[cin][ki], w as i64, tmp)?;
                dev.add(tmp, acc, acc)?;
            }
        }
        dev.max_scalar(acc, 0, acc)?; // ReLU
        dev.shift_right(acc, SHIFT, acc)?; // quantized rescale
        dev.min_scalar(acc, CLAMP as i64, acc)?; // saturation
        out_channels.push(acc);
    }
    dev.free(tmp)?;
    for per_k in shifted {
        for o in per_k {
            dev.free(o)?;
        }
    }
    for &c in &input.channels {
        dev.free(c)?;
    }
    Ok(Maps {
        channels: out_channels,
        side,
    })
}

/// PIM max-pool: four phase maps prepared host-side, max tree on PIM.
fn pim_pool(dev: &mut Device, input: &Maps, host_input: &HostMaps) -> Result<Maps, BenchError> {
    let side = input.side;
    let half = side / 2;
    let per = side * side;
    let mut out_channels = Vec::with_capacity(input.channels.len());
    for (ch, map) in input.channels.iter().zip(host_input) {
        let mut phases: [Vec<i32>; 4] = Default::default();
        for b in 0..BATCH {
            for y in 0..half {
                for x in 0..half {
                    let i = b * per + 2 * y * side + 2 * x;
                    phases[0].push(map[i]);
                    phases[1].push(map[i + 1]);
                    phases[2].push(map[i + side]);
                    phases[3].push(map[i + side + 1]);
                }
            }
        }
        let objs: Vec<ObjId> = phases
            .iter()
            .map(|p| dev.alloc_vec(p))
            .collect::<Result<Vec<_>, _>>()?;
        dev.max(objs[0], objs[1], objs[0])?;
        dev.max(objs[0], objs[2], objs[0])?;
        dev.max(objs[0], objs[3], objs[0])?;
        for &o in &objs[1..] {
            dev.free(o)?;
        }
        out_channels.push(objs[0]);
        dev.free(*ch)?;
    }
    Ok(Maps {
        channels: out_channels,
        side: half,
    })
}

/// A VGG variant benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Vgg {
    /// Which depth to run.
    pub variant: VggVariant,
}

impl Benchmark for Vgg {
    fn spec(&self) -> BenchSpec {
        BenchSpec {
            name: self.variant.name(),
            domain: Domain::NeuralNetwork,
            sequential: true,
            random: false,
            exec: ExecType::PimHost,
            paper_input: "64, 224x224x3 image matrix and 3x3x64 weight matrix",
        }
    }

    fn run(&self, dev: &mut Device, params: &Params) -> Result<RunOutcome, BenchError> {
        dev.reset_stats();
        let mut rng = SplitMix64::new(params.seed);
        let weights = gen_weights(self.variant, &mut rng);
        let n0 = BATCH * SIDE * SIDE;
        let mut host_maps: HostMaps = (0..3).map(|_| rng.i32_vec(n0, 0, 16)).collect();
        let mut maps = Maps {
            channels: host_maps
                .iter()
                .map(|m| dev.alloc_vec(m))
                .collect::<Result<Vec<_>, _>>()?,
            side: SIDE,
        };

        // Conv blocks with verification of every layer output.
        let mut layer_idx = 0;
        let mut ok = true;
        let mut side = SIDE;
        for (_cout, n_convs) in self.variant.blocks() {
            for _ in 0..n_convs {
                maps = pim_conv_layer(dev, &maps, &host_maps, &weights.conv[layer_idx])?;
                host_maps = host_conv_layer(&host_maps, side, &weights.conv[layer_idx]);
                layer_idx += 1;
            }
            let pooled = pim_pool(dev, &maps, &host_maps)?;
            host_maps = host_pool(&host_maps, side);
            maps = pooled;
            side /= 2;
        }
        // Flattened features: side is now 1, one value per channel/image.
        let feat_per_img: Vec<Vec<i32>> = (0..BATCH)
            .map(|b| host_maps.iter().map(|m| m[b]).collect())
            .collect();
        // Spot-check the device against the host mirror.
        for (c, &obj) in maps.channels.iter().enumerate() {
            let v = dev.to_vec::<i32>(obj)?;
            ok &= v == host_maps[c];
        }
        for &c in &maps.channels {
            dev.free(c)?;
        }

        // Dense layers: mul + reduction GEMV per output neuron, batched
        // per image.
        let mut logits = Vec::with_capacity(BATCH);
        for feat in &feat_per_img {
            let mut x = feat.clone();
            for (li, layer) in weights.fc.iter().enumerate() {
                let ox = dev.alloc_vec(&x)?;
                let tmp = dev.alloc_associated(ox, DataType::Int32)?;
                let mut next = Vec::with_capacity(layer.len());
                for w_row in layer {
                    let ow = dev.alloc_vec(w_row)?;
                    dev.mul(ow, ox, tmp)?;
                    let dot = dev.red_sum(tmp)? as i32;
                    dev.free(ow)?;
                    next.push(if li + 1 < weights.fc.len() {
                        dot.max(0) >> SHIFT
                    } else {
                        dot
                    });
                }
                dev.free(tmp)?;
                dev.free(ox)?;
                x = next;
            }
            logits.push(x);
        }
        // Host: softmax + argmax (floating point, PIM-unsupported).
        charge_host(
            dev,
            &WorkloadProfile::new((BATCH * CLASSES * 8) as f64, 4096.0),
        )?;
        for (b, l) in logits.iter().enumerate() {
            // Reference dense path.
            let mut x = feat_per_img[b].clone();
            for (li, layer) in weights.fc.iter().enumerate() {
                x = layer
                    .iter()
                    .map(|row| {
                        let dot: i64 = row.iter().zip(&x).map(|(&w, &v)| w as i64 * v as i64).sum();
                        if li + 1 < weights.fc.len() {
                            ((dot.max(0)) >> SHIFT) as i32
                        } else {
                            dot as i32
                        }
                    })
                    .collect();
            }
            ok &= *l == x;
        }
        finish(dev, ok, "VGG feature maps / logits")
    }

    fn cpu_profile(&self, params: &Params) -> WorkloadProfile {
        let _ = params;
        let macs = self.total_macs();
        // PyTorch CPU inference.
        WorkloadProfile::new(2.0 * macs, 0.5 * macs).with_efficiency(0.6)
    }

    fn gpu_profile(&self, params: &Params) -> WorkloadProfile {
        let _ = params;
        let macs = self.total_macs();
        WorkloadProfile::new(2.0 * macs, 0.1 * macs).with_efficiency(0.7)
    }

    fn paper_factor(&self, params: &Params) -> f64 {
        let _ = params;
        self.paper_macs() / self.total_macs()
    }

    fn serial_factor(&self, params: &Params) -> f64 {
        // The input-channel x kernel-position sweep of each conv is the
        // serial dimension; spatial extent, batch, and output channels
        // (independent accumulator maps) are all data-parallel. Channel
        // counts are scaled by 16 (DESIGN.md #6).
        let _ = params;
        16.0
    }
}

impl Vgg {
    /// MACs of the paper's configuration: 64 images of 224x224x3 with
    /// the full VGG channel widths (64-128-256-512-512) and 4096-wide
    /// dense layers.
    fn paper_macs(&self) -> f64 {
        let convs: [usize; 5] = match self.variant {
            VggVariant::Vgg13 => [2, 2, 2, 2, 2],
            VggVariant::Vgg16 => [2, 2, 3, 3, 3],
            VggVariant::Vgg19 => [2, 2, 4, 4, 4],
        };
        let channels = [64usize, 128, 256, 512, 512];
        let (batch, mut side, mut cin) = (64usize, 224usize, 3usize);
        let mut macs = 0f64;
        for (b, &cout) in channels.iter().enumerate() {
            for _ in 0..convs[b] {
                macs += (batch * side * side * 9 * cin * cout) as f64;
                cin = cout;
            }
            side /= 2;
        }
        let feat = cin * side * side; // 512 * 7 * 7
        macs + (batch * (feat * 4096 + 4096 * 4096 + 4096 * 1000)) as f64
    }

    fn total_macs(&self) -> f64 {
        let mut macs = 0f64;
        let mut cin = 3usize;
        let mut side = SIDE;
        for (cout, n_convs) in self.variant.blocks() {
            for _ in 0..n_convs {
                macs += (BATCH * side * side * 9 * cin * cout) as f64;
                cin = cout;
            }
            side /= 2;
        }
        macs + (BATCH * (cin * FC_HIDDEN + FC_HIDDEN * FC_HIDDEN + FC_HIDDEN * CLASSES)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_depths() {
        assert_eq!(
            VggVariant::Vgg13
                .blocks()
                .iter()
                .map(|b| b.1)
                .sum::<usize>(),
            10
        );
        assert_eq!(
            VggVariant::Vgg16
                .blocks()
                .iter()
                .map(|b| b.1)
                .sum::<usize>(),
            13
        );
        assert_eq!(
            VggVariant::Vgg19
                .blocks()
                .iter()
                .map(|b| b.1)
                .sum::<usize>(),
            16
        );
    }

    #[test]
    fn deeper_variants_cost_more_macs() {
        let m13 = Vgg {
            variant: VggVariant::Vgg13,
        }
        .total_macs();
        let m16 = Vgg {
            variant: VggVariant::Vgg16,
        }
        .total_macs();
        let m19 = Vgg {
            variant: VggVariant::Vgg19,
        }
        .total_macs();
        assert!(m13 < m16 && m16 < m19);
    }

    #[test]
    fn host_shift_zero_pads() {
        // 2x2 single image, BATCH copies stacked.
        let side = 2;
        let map: Vec<i32> = (0..(BATCH * 4) as i32).collect();
        let s = host_shift(&map, side, 1, 0); // pull from y+1
        assert_eq!(s[0], map[2]);
        assert_eq!(s[2], 0, "bottom row becomes zero");
    }

    #[test]
    fn vgg13_verifies_on_fulcrum() {
        let mut dev = Device::fulcrum(1).unwrap();
        let out = Vgg {
            variant: VggVariant::Vgg13,
        }
        .run(&mut dev, &Params::default())
        .unwrap();
        assert!(out.verified);
        assert!(out.stats.host_time_ms > 0.0);
        assert!(
            out.stats.categories[&pimeval::OpCategory::Max] > 0,
            "ReLU/pool maxes"
        );
    }
}
