//! BAT descriptor properties (Section 5.1).
//!
//! Monet keeps track of properties of permanent and intermediate BATs so
//! that algebraic commands can make a run-time choice between alternative
//! implementations. Each MIL command has a *propagation rule* carrying the
//! properties of its parameters onto its result; the rules live with the
//! operators in [`crate::ops`].

/// Physical encoding fact of a column: raw, or a dictionary-coded string
/// column (see [`crate::column::Column::encode`]; `int`/`date` columns are
/// always raw). Unlike `sorted`/`key`/`dense`, this is not a semantic
/// claim about the values — it describes the storage layout, which is why
/// [`crate::bat::Bat`] constructors derive it from the actual column
/// instead of trusting the caller. `None` means "no encoding known", the
/// always-sound default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Enc {
    /// Raw layout, or encoding unknown.
    #[default]
    None,
    /// Order-preserving dictionary codes over the string heap: code order
    /// equals string order, so range predicates map to code ranges.
    Dict,
}

/// Per-column properties.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColProps {
    /// Values are in ascending (non-strict) order — `ordered(BAT)`.
    pub sorted: bool,
    /// Values contain no duplicates — `key(BAT)`.
    pub key: bool,
    /// Values form a dense consecutive sequence (implies `sorted` and
    /// `key`); true for `void` columns and freshly marked oid ranges.
    pub dense: bool,
    /// Physical encoding of the column storage.
    pub enc: Enc,
}

impl ColProps {
    /// No properties known.
    pub const NONE: ColProps = ColProps { sorted: false, key: false, dense: false, enc: Enc::None };

    /// Sorted + key + dense (void columns, `mark` results).
    pub const DENSE: ColProps = ColProps { sorted: true, key: true, dense: true, enc: Enc::None };

    /// Sorted and duplicate-free.
    pub const SORTED_KEY: ColProps =
        ColProps { sorted: true, key: true, dense: false, enc: Enc::None };

    /// Sorted, possibly with duplicates.
    pub const SORTED: ColProps =
        ColProps { sorted: true, key: false, dense: false, enc: Enc::None };

    /// Duplicate-free, unordered.
    pub const KEY: ColProps = ColProps { sorted: false, key: true, dense: false, enc: Enc::None };

    /// Normalize: dense implies sorted and key.
    pub fn normalized(mut self) -> ColProps {
        if self.dense {
            self.sorted = true;
            self.key = true;
        }
        self
    }

    /// This column layout claim with a different encoding fact.
    pub fn with_encoding(mut self, enc: Enc) -> ColProps {
        self.enc = enc;
        self
    }

    /// Intersection of guarantees (safe weakening when merging unknowns).
    pub fn and(self, other: ColProps) -> ColProps {
        ColProps {
            sorted: self.sorted && other.sorted,
            key: self.key && other.key,
            dense: self.dense && other.dense,
            enc: if self.enc == other.enc { self.enc } else { Enc::None },
        }
    }

    /// Claim subsumption: every property claimed here is also claimed by
    /// `stronger`. This is the soundness order of the plan optimizer's
    /// static inference — a plan-time prediction must `implies` whatever
    /// the kernel derives (or a scan verifies) at run time. Claiming a
    /// specific encoding requires `stronger` to carry the same one;
    /// `Enc::None` claims nothing.
    pub fn implies(self, stronger: ColProps) -> bool {
        (!self.sorted || stronger.sorted)
            && (!self.key || stronger.key)
            && (!self.dense || stronger.dense)
            && (self.enc == Enc::None || stronger.enc == self.enc)
    }
}

/// Properties of a BAT: head column and tail column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Props {
    pub head: ColProps,
    pub tail: ColProps,
}

impl Props {
    /// Nothing known about either column.
    pub const NONE: Props = Props { head: ColProps::NONE, tail: ColProps::NONE };

    pub fn new(head: ColProps, tail: ColProps) -> Props {
        Props { head: head.normalized(), tail: tail.normalized() }
    }

    /// The mirrored BAT swaps the column roles — and so swaps the
    /// properties (part of `mirror`'s propagation rule).
    pub fn mirrored(self) -> Props {
        Props { head: self.tail, tail: self.head }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_normalizes() {
        let p = ColProps { dense: true, ..ColProps::NONE }.normalized();
        assert!(p.sorted && p.key && p.dense);
    }

    #[test]
    fn mirror_swaps() {
        let p = Props::new(ColProps::DENSE, ColProps::SORTED);
        let m = p.mirrored();
        assert_eq!(m.head, ColProps::SORTED);
        assert_eq!(m.tail, ColProps::DENSE);
        assert_eq!(m.mirrored(), p);
    }

    #[test]
    fn and_weakens() {
        let a = ColProps::SORTED_KEY;
        let b = ColProps::SORTED;
        let c = a.and(b);
        assert!(c.sorted && !c.key && !c.dense);
    }

    #[test]
    fn implies_is_the_soundness_order() {
        assert!(ColProps::NONE.implies(ColProps::DENSE));
        assert!(ColProps::SORTED.implies(ColProps::SORTED_KEY));
        assert!(!ColProps::SORTED_KEY.implies(ColProps::SORTED));
        assert!(!ColProps::DENSE.implies(ColProps::SORTED_KEY));
        assert!(ColProps::DENSE.implies(ColProps::DENSE));
        // `and` of two claims implies both.
        let a = ColProps::SORTED_KEY;
        let b = ColProps::SORTED;
        assert!(a.and(b).implies(a) && a.and(b).implies(b));
    }
}
