//! Inputs are a pure function of the seed: one seed gives byte-identical
//! books and request streams, two seeds give different ones.

use amopt_perfbench::gen::{self, BOOK_SIZE, BOOK_STEPS};
use amopt_perfbench::quote_stream::Stream;
use std::collections::HashSet;

fn stream_bytes(seed: u64) -> String {
    Stream::new(seed, 2.0).lines.join("\n")
}

#[test]
fn one_seed_gives_byte_identical_inputs() {
    assert_eq!(
        gen::render(&gen::book(7, BOOK_SIZE, BOOK_STEPS)),
        gen::render(&gen::book(7, BOOK_SIZE, BOOK_STEPS))
    );
    assert_eq!(stream_bytes(7), stream_bytes(7));
    assert_eq!(gen::deep_t_order(7, 500), gen::deep_t_order(7, 500));
}

#[test]
fn two_seeds_give_different_inputs() {
    assert_ne!(
        gen::render(&gen::book(7, BOOK_SIZE, BOOK_STEPS)),
        gen::render(&gen::book(8, BOOK_SIZE, BOOK_STEPS))
    );
    assert_ne!(stream_bytes(7), stream_bytes(8));
    assert_ne!(gen::deep_t_order(7, 500), gen::deep_t_order(8, 500));
}

#[test]
fn the_book_is_distinct_and_mixed() {
    let book = gen::book(3, BOOK_SIZE, BOOK_STEPS);
    let keys: HashSet<String> = book.iter().map(gen::describe).collect();
    assert_eq!(keys.len(), book.len(), "book_cold must never deduplicate");
    let styles: HashSet<String> =
        book.iter().map(|r| format!("{:?}", std::mem::discriminant(&r.style))).collect();
    assert_eq!(styles.len(), 3, "American, European and Bermudan slices");
}

#[test]
fn deep_t_keeps_equal_engine_shares_in_every_prefix() {
    let pool = gen::deep_t_pool();
    let order = gen::deep_t_order(11, 300);
    for prefix in [3, 30, 120, 300] {
        let mut counts = [0usize; 3];
        for &i in &order[..prefix] {
            counts[gen::Engine::ALL.iter().position(|e| *e == pool[i].engine).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| c == prefix / 3), "{prefix}: {counts:?}");
    }
}

#[test]
fn the_reference_table_matches_the_pool() {
    let pool = gen::deep_t_pool();
    let refs = amopt_perfbench::refs::load(&pool).expect("refs/deep_t.tsv describes the pool");
    assert_eq!(refs.len(), pool.len());
}
