//! Plain-text tokenization.
//!
//! The rest of the stack works on token ids; this module is the boundary
//! where raw user strings (e.g. from an application front-end) enter the
//! system: lower-casing, punctuation-stripping whitespace tokenization
//! against a [`Vocabulary`].

use crate::vocab::Vocabulary;

/// Splits raw text into normalized word strings: lower-cased,
/// alphanumeric-only, split on everything else.
///
/// # Example
///
/// ```
/// let words = semcom_text::tokenize_words("Hello, semantic-world!  ");
/// assert_eq!(words, vec!["hello", "semantic", "world"]);
/// ```
pub fn tokenize_words(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
        .collect()
}

/// Tokenizes raw text straight to vocabulary ids (unknown words become
/// [`Vocabulary::UNK`]).
///
/// # Example
///
/// ```
/// use semcom_text::{Vocabulary, tokenize};
/// let mut v = Vocabulary::new();
/// let id = v.intern("mirola");
/// assert_eq!(tokenize("Mirola, mirola?", &v), vec![id, id]);
/// ```
pub fn tokenize(text: &str, vocab: &Vocabulary) -> Vec<usize> {
    tokenize_words(text)
        .iter()
        .map(|w| vocab.id_of(w).unwrap_or(Vocabulary::UNK))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(
            tokenize_words("a,b;c  d\te\nf"),
            vec!["a", "b", "c", "d", "e", "f"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize_words("MiXeD CaSe"), vec!["mixed", "case"]);
    }

    #[test]
    fn empty_and_symbol_only_input() {
        assert!(tokenize_words("").is_empty());
        assert!(tokenize_words("!!! ... ---").is_empty());
    }

    #[test]
    fn unknown_words_map_to_unk() {
        let mut v = Vocabulary::new();
        let known = v.intern("known");
        assert_eq!(tokenize("known unknown", &v), vec![known, Vocabulary::UNK]);
    }

    #[test]
    fn roundtrip_with_generated_sentences() {
        use crate::{CorpusGenerator, Domain, LanguageConfig, Rendering};
        let lang = LanguageConfig::tiny().build(0);
        let mut gen = CorpusGenerator::new(&lang, 1);
        let s = gen.sentence(Domain::It, Rendering::Canonical);
        // A generated sentence's text re-tokenizes to the same token ids.
        assert_eq!(tokenize(&s.text(lang.vocab()), lang.vocab()), s.tokens);
    }
}
