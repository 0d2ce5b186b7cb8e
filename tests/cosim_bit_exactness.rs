//! The FINN cosim invariant, property-tested across the whole stack:
//!
//! float fake-quant network → integer export → dataflow graph →
//! cycle-accurate simulator → memory-mapped peripheral
//!
//! must all produce identical classes (and scores where exposed) for
//! every input. The peripheral serves through the IP's packed kernel, so
//! its result registers also pin the merge of 32-bit input registers
//! into the kernel's `u64` words.

use std::sync::OnceLock;

use canids_can::time::SimTime;
use canids_dataflow::folding::{auto_fold, FoldingGoal};
use canids_dataflow::graph::DataflowGraph;
use canids_dataflow::ip::{AcceleratorIp, CompileConfig, RegisterMap};
use canids_dataflow::simulator::{AcceleratorSim, SimConfig};
use canids_dataflow::verify::verify_bit_exact;
use canids_qnn::prelude::*;
use canids_soc::accel::{pack_features, AccelPeripheral, CTRL_START};
use canids_soc::axi::MmioDevice;
use proptest::prelude::*;

/// Trains a small model so thresholds are calibrated and non-trivial.
fn trained_model(bits: u8, hidden: Vec<usize>, seed: u64) -> IntegerMlp {
    let dim = 16usize;
    let mut mlp = QuantMlp::new(MlpConfig {
        input_dim: dim,
        hidden,
        weight_bits: BitWidth::new(bits).unwrap(),
        act_bits: BitWidth::new(bits).unwrap(),
        seed,
        ..MlpConfig::default()
    })
    .unwrap();
    // Deterministic toy training set keyed on the seed.
    let mut state = seed | 1;
    let mut bit = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1 == 1
    };
    let xs: Vec<Vec<f32>> = (0..300)
        .map(|_| (0..dim).map(|_| f32::from(bit() as u8)).collect())
        .collect();
    let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] + x[3] > 1.0)).collect();
    Trainer::new(TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    })
    .fit(&mut mlp, &xs, &ys)
    .unwrap();
    mlp.export().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn integer_graph_sim_peripheral_agree(
        bits in prop_oneof![Just(2u8), Just(3), Just(4), Just(8)],
        seed in 0u64..1_000,
        inputs in proptest::collection::vec(
            proptest::collection::vec(0u32..=1, 16), 1..8),
    ) {
        let model = trained_model(bits, vec![10, 6], seed);

        // Layer 1: graph lowering must be exact.
        let graph = DataflowGraph::from_integer_mlp(&model).unwrap();
        verify_bit_exact(&graph, &model, 32, seed).unwrap();

        // Layer 2: the cycle-accurate simulator must be exact.
        let folding = auto_fold(&graph, FoldingGoal::MinResource).unwrap();
        let sim = AcceleratorSim::new(graph.clone(), &folding, SimConfig::default()).unwrap();
        let report = sim.run(&inputs);
        for (i, x) in inputs.iter().enumerate() {
            let want = model.infer(x);
            prop_assert_eq!(report.predictions[i], want.class);
            prop_assert_eq!(&report.scores[i], &want.scores);
        }

        // Layer 3: the memory-mapped peripheral must be exact.
        let ip = AcceleratorIp::compile(&model, CompileConfig::default()).unwrap();
        let mut dev = AccelPeripheral::new(ip);
        let mut now = SimTime::ZERO;
        for x in &inputs {
            let bits_f: Vec<f32> = x.iter().map(|&b| b as f32).collect();
            for (w, word) in pack_features(&bits_f).into_iter().enumerate() {
                dev.write(RegisterMap::INPUT_BASE + 4 * w as u32, word, now).unwrap();
            }
            dev.write(RegisterMap::CTRL, CTRL_START, now).unwrap();
            now += SimTime::from_micros(100);
            let class = dev.read(RegisterMap::OUT_CLASS, now).unwrap() as usize;
            prop_assert_eq!(class, model.infer(x).class);
            now += SimTime::from_micros(10);
        }
    }
}

/// The exact deployment topology (75-64-32-2 at 4 bits), trained once.
fn paper_model() -> &'static IntegerMlp {
    static MODEL: OnceLock<IntegerMlp> = OnceLock::new();
    MODEL.get_or_init(|| {
        let mut mlp = QuantMlp::new(MlpConfig::paper_4bit()).unwrap();
        let mut state = 0xBEEFu64;
        let mut bit = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1 == 1
        };
        let xs: Vec<Vec<f32>> = (0..400)
            .map(|_| (0..75).map(|_| f32::from(bit() as u8)).collect())
            .collect();
        let ys: Vec<usize> = xs.iter().map(|x| usize::from(x[0] > 0.5)).collect();
        Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .fit(&mut mlp, &xs, &ys)
        .unwrap();
        mlp.export().unwrap()
    })
}

#[test]
fn paper_topology_cosim_holds() {
    let model = paper_model();
    let graph = DataflowGraph::from_integer_mlp(model).unwrap();
    verify_bit_exact(&graph, model, 512, 0xC0).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn register_words_merge_into_kernel_words(
        bits in proptest::collection::vec(0u32..=1, 75),
        unwired in any::<u32>(),
    ) {
        static IP: OnceLock<AcceleratorIp> = OnceLock::new();
        let model = paper_model();
        let ip = IP.get_or_init(|| AcceleratorIp::compile(model, CompileConfig::default()).unwrap());
        // Both edges of every 32-bit register and of the first u64 word,
        // and the last input bit.
        let mut x = bits;
        for i in [0, 31, 32, 63, 64, 74] {
            x[i] = 1;
        }
        let bits_f: Vec<f32> = x.iter().map(|&b| b as f32).collect();
        let mut regs = pack_features(&bits_f);
        // Register bits past input 74 reach no datapath input.
        regs[2] |= unwired << 11;
        let mut dev = AccelPeripheral::new(ip.clone());
        for (w, &word) in regs.iter().enumerate() {
            dev.write(RegisterMap::INPUT_BASE + 4 * w as u32, word, SimTime::ZERO).unwrap();
        }
        dev.write(RegisterMap::CTRL, CTRL_START, SimTime::ZERO).unwrap();
        let done = SimTime::from_micros(100);
        let want = model.infer(&x);
        prop_assert_eq!(dev.read(RegisterMap::OUT_CLASS, done).unwrap() as usize, want.class);
        for (c, &score) in want.scores.iter().enumerate() {
            let reg = dev.read(RegisterMap::OUT_SCORE_BASE + 4 * c as u32, done).unwrap();
            prop_assert_eq!(i64::from(reg as i32), score);
        }
    }
}
