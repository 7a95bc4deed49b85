//! Toolchain lint-wall near-miss fixture: staged like `p_firing.rs`,
//! with the durability modules' indexing lint on, nothing here may
//! raise a panic-freedom, indexing, `unsafe` or stale-waiver lint.

#![deny(clippy::indexing_slicing)]

fn checked(xs: &[u64], flag: Option<u64>) -> u64 {
    // `unwrap_or` / `map_or` are the checked cousins, not `unwrap`.
    let a = flag.unwrap_or(0);
    // An array literal's `[` is not an index expression.
    let arr = [a; 4];
    // `.get()` is the checked indexing path.
    let first = xs.first().copied().unwrap_or_default();
    first + arr.len() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_index_and_panic() {
        let xs = vec![1u64, 2];
        let head = xs.first().copied().unwrap();
        assert_eq!(xs[0], head);
        if head == 7 {
            panic!("sevens are impossible here");
        }
    }
}
