/**
 * @file
 * Shared test helpers.
 *
 * livephase reports user errors via fatal() (exit) and invariant
 * violations via panic() (abort). ScopedFailureCapture reroutes both
 * into a C++ exception for the duration of a test so EXPECT_THROW
 * style assertions can cover the error paths without death tests.
 */

#ifndef LIVEPHASE_TESTS_TEST_UTIL_HH
#define LIVEPHASE_TESTS_TEST_UTIL_HH

#include <stdexcept>
#include <string>

#include "common/logging.hh"

namespace livephase::test
{

/** Exception thrown in place of exit()/abort() under capture. */
class Failure : public std::runtime_error
{
  public:
    Failure(const std::string &message, bool is_panic)
        : std::runtime_error(message), panic(is_panic)
    {
    }

    bool isPanic() const { return panic; }

  private:
    bool panic;
};

/** RAII hook installing the failure-to-exception bridge. */
class ScopedFailureCapture
{
  public:
    ScopedFailureCapture()
    {
        setFailureHook(&throwFailure);
    }

    ~ScopedFailureCapture()
    {
        setFailureHook(nullptr);
    }

    ScopedFailureCapture(const ScopedFailureCapture &) = delete;
    ScopedFailureCapture &operator=(const ScopedFailureCapture &) =
        delete;

  private:
    [[noreturn]] static void
    throwFailure(const std::string &message, bool is_panic)
    {
        throw Failure(message, is_panic);
    }
};

} // namespace livephase::test

/** Expect the statement to hit fatal() or panic(). */
#define EXPECT_FAILURE(statement)                                     \
    do {                                                              \
        ::livephase::test::ScopedFailureCapture capture__;            \
        EXPECT_THROW(statement, ::livephase::test::Failure);          \
    } while (0)

/**
 * The frame an encode*Into call builds in a fresh buffer, as a
 * value: ENCODED(encodeCloseRequestInto, 42) is the Close frame for
 * session 42. The protocol has one form of each encoder (into the
 * caller's buffer); this is for tests that want a frame inline.
 */
#define ENCODED(encode, ...)                                          \
    ([&] {                                                            \
        ::livephase::service::Bytes encoded__;                        \
        encode(encoded__ __VA_OPT__(, ) __VA_ARGS__);                 \
        return encoded__;                                             \
    }())

#endif // LIVEPHASE_TESTS_TEST_UTIL_HH
