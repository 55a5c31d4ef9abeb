//! Client command text on the mini systems' request path: a command split
//! into words and a reply formatted, neither through a `Vec` or `String`.

use bytes::Bytes;
use std::fmt;

/// Splits `text` into its whitespace-separated words, exactly as
/// [`str::split_whitespace`] does, into the caller's fixed array, and
/// returns the filled prefix for matching against slice patterns.
///
/// A command of more than `N` words returns the empty slice, which matches
/// no command pattern — just as the longer slice of a `Vec` never did.
///
/// ```
/// let mut words = [""; 3];
/// assert_eq!(dup_core::split_words("SET\tk  v", &mut words), ["SET", "k", "v"]);
/// assert!(dup_core::split_words("SET k v w", &mut words).is_empty());
/// ```
pub fn split_words<'t, 'w, const N: usize>(
    text: &'t str,
    words: &'w mut [&'t str; N],
) -> &'w [&'t str] {
    let mut len = 0;
    for word in text.split_whitespace() {
        if len == N {
            return &[];
        }
        words[len] = word;
        len += 1;
    }
    &words[..len]
}

/// A formatted reply in one allocation: `args` are written into a stack
/// buffer and copied once into the reply's shared bytes. (A reply longer
/// than the stack buffer is formatted on the heap first.) A fixed reply
/// needs no allocation at all: use `Bytes::from_static`.
///
/// ```
/// let idx = 7;
/// assert_eq!(dup_core::format_reply(format_args!("OK {idx}"))[..], b"OK 7"[..]);
/// ```
pub fn format_reply(args: fmt::Arguments<'_>) -> Bytes {
    struct Stack {
        buf: [u8; 256],
        len: usize,
    }
    impl fmt::Write for Stack {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            let end = self.len + s.len();
            let dst = self.buf.get_mut(self.len..end).ok_or(fmt::Error)?;
            dst.copy_from_slice(s.as_bytes());
            self.len = end;
            Ok(())
        }
    }
    let mut stack = Stack {
        buf: [0; 256],
        len: 0,
    };
    match fmt::write(&mut stack, args) {
        Ok(()) => Bytes::copy_from_slice(&stack.buf[..stack.len]),
        Err(_) => Bytes::from(fmt::format(args)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_split_whitespaces_up_to_the_array() {
        let texts = [
            "",
            "   ",
            "HEALTH",
            " \tPUT  ks.t k\u{3000}v\n",
            "a b c d",
            "a b c d e",
            "a b c d e f g h",
        ];
        for text in texts {
            let mut words = [""; 4];
            let split: Vec<&str> = text.split_whitespace().collect();
            let want: &[&str] = if split.len() > 4 { &[] } else { &split };
            assert_eq!(split_words(text, &mut words), want, "{text:?}");
        }
    }

    #[test]
    fn replies_equal_format_on_both_sides_of_the_stack_buffer() {
        for len in [0, 1, 252, 253, 254, 400] {
            let value = "v".repeat(len);
            let want = format!("OK {value}");
            assert_eq!(
                format_reply(format_args!("OK {value}"))[..],
                *want.as_bytes()
            );
        }
    }
}
