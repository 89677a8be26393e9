//! Personal-text adaptation: tune a compressed model on a user's own text,
//! generate continuations through exit voting, and checkpoint the adapted
//! model — the full on-device lifecycle.
//!
//! ```text
//! cargo run --release --example text_adaptation
//! ```

use edge_llm::compress::apply_policy;
use edge_llm::report::f3;
use edge_llm::resilience::{restore_run, RunMeta};
use edge_llm_data::{perplexity, TaskGenerator, TextLmTask};
use edge_llm_luc::CompressionPolicy;
use edge_llm_model::{
    generate, AdaptiveTuner, Decoding, EdgeModel, ModelConfig, Sgd, TrainingCheckpoint,
    VotingCombiner, VotingPolicy, WindowSchedule,
};
use edge_llm_quant::BitWidth;
use edge_llm_tensor::TensorRng;

const NOTES: &str = "monday: water the plants. tuesday: water the plants again. \
wednesday: the plants are fine, check the sensors. thursday: sensor three reads low, \
recalibrate sensor three. friday: all sensors nominal, water the plants. \
saturday: prune the tomatoes, water the plants. sunday: rest, the plants can wait. ";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let task = TextLmTask::new(NOTES)?;
    let tok = task.tokenizer();
    let cfg = ModelConfig::tiny()
        .with_layers(4)
        .with_d_model(32, 4)
        .with_seq_len(32)
        .with_vocab(task.vocab_size());
    let mut rng = TensorRng::seed_from(3);
    let mut model = EdgeModel::new(cfg.clone(), &mut rng)?;

    // compress for on-device execution, then adapt on the notes
    let policy = CompressionPolicy::uniform(4, BitWidth::W8, 0.25);
    apply_policy(&mut model, &policy)?;
    let train = task.dataset(32, cfg.seq_len, &mut rng);
    let mut tuner = AdaptiveTuner::new(WindowSchedule::RoundRobin { depth: 2 });
    let mut opt = Sgd::new(0.15);
    for it in 0..400 {
        let b = train.batch_at(it * 4, 4);
        let rep = tuner.step(&mut model, &mut opt, &b.tokens, &b.targets, b.batch)?;
        if it % 100 == 0 {
            println!("iter {it:>3}: loss {}", f3(rep.loss as f64));
        }
    }

    // held-out perplexity on fresh windows of the notes
    let eval = task.dataset(8, cfg.seq_len, &mut rng);
    let b = eval.batch_at(0, 8);
    let logits = model.logits(&b.tokens, 8)?;
    println!(
        "\nperplexity on held-out windows: {}",
        f3(perplexity(&logits, &b.targets) as f64)
    );

    // generate a continuation via exit voting
    let voting = VotingPolicy::all_exits(
        model.n_layers(),
        VotingCombiner::ConfidenceWeighted { temperature: 0.5 },
    );
    let prompt = tok.encode("monday: water");
    let out = generate(
        &model,
        &voting,
        &prompt,
        40,
        Decoding::TopK {
            k: 3,
            temperature: 0.8,
        },
        &mut rng,
    )?;
    println!("continuation: {:?}", tok.decode(&out));

    // checkpoint round-trip: the file records the policy, and restoring
    // re-installs it on the loaded parameters
    let meta = RunMeta {
        policy,
        data_seed: 3,
        window: 2,
    };
    let mut bytes = Vec::new();
    TrainingCheckpoint::capture(&model, &opt, 400, &rng, meta.encode()).write_to(&mut bytes)?;
    let loaded = TrainingCheckpoint::read_from(&mut bytes.as_slice())?;
    let (restored, ..) = restore_run(&loaded)?;
    let same = restored.logits(&b.tokens, 8)?;
    assert!(
        logits.approx_eq(&same, 1e-6),
        "checkpoint must restore the exact model"
    );
    println!("checkpoint: {} bytes, restored bit-exact", bytes.len());
    Ok(())
}
