/**
 * @file
 * Golden proofs for the GPHT's (sets, ways) geometries.
 *
 * Every digest below was captured before the set-associative GPHT
 * was folded into GphtPredictor: the 1xN columns from the fully
 * associative predictor, the SxW columns from the former separate
 * hashed class. Recomputing them with today's GphtPredictor proves
 * the fold moved no prediction and no Stats counter, and they pin
 * the LRU order through every replacement since.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/gpht_predictor.hh"
#include "core/phase_classifier.hh"
#include "workload/spec2000.hh"

namespace livephase
{
namespace
{

struct Geometry
{
    size_t sets;
    size_t ways;
};

/** Digest columns, in table order. */
constexpr Geometry GEOMETRIES[] = {{1, 1},   {1, 128}, {1, 1024},
                                   {128, 1}, {64, 2},  {32, 4},
                                   {16, 8},  {8, 16}};
constexpr size_t NUM_GEOMETRIES = std::size(GEOMETRIES);

/** One stream's digests: a Spec2000Suite trace at its default
 *  length, or "uniform" — 4000 phases drawn from Rng(seed). */
struct Golden
{
    const char *stream;
    uint64_t seed;
    uint64_t digest[NUM_GEOMETRIES];
};

// clang-format off
const Golden GOLDEN[] = {
    {"crafty_in", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"eon_cook", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"eon_kajiya", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"eon_rushmeier", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"mesa_ref", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"vortex_lendian2", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"sixtrack_in", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"swim_in", 1,
     {0xce643732f5d47a45, 0xce643732f5d47a45, 0xce643732f5d47a45,
      0xce643732f5d47a45, 0xce643732f5d47a45, 0xce643732f5d47a45,
      0xce643732f5d47a45, 0xce643732f5d47a45}},
    {"vortex_lendian1", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"twolf_ref", 1,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"vortex_lendian3", 1,
     {0xf8a9335a8be7d121, 0x8162368976ff337d, 0x8162368976ff337d,
      0x8162368976ff337d, 0x8162368976ff337d, 0x8162368976ff337d,
      0x8162368976ff337d, 0x8162368976ff337d}},
    {"gzip_program", 1,
     {0x38d16e6e1efea2bc, 0x56cac6c4b1e4f6f1, 0x56cac6c4b1e4f6f1,
      0xc961bdc8ebdd5cd5, 0x56cac6c4b1e4f6f1, 0x56cac6c4b1e4f6f1,
      0x56cac6c4b1e4f6f1, 0x56cac6c4b1e4f6f1}},
    {"gzip_graphic", 1,
     {0xf00f4429631d4b9e, 0x60e2dd632f9cf231, 0x60e2dd632f9cf231,
      0x379397773ecb008e, 0x60e2dd632f9cf231, 0x60e2dd632f9cf231,
      0x60e2dd632f9cf231, 0x60e2dd632f9cf231}},
    {"gzip_random", 1,
     {0xdf3ce686132b3bae, 0xe8cfc220b737c7f2, 0xe8cfc220b737c7f2,
      0xe8cfc220b737c7f2, 0xe8cfc220b737c7f2, 0xe8cfc220b737c7f2,
      0xe8cfc220b737c7f2, 0xe8cfc220b737c7f2}},
    {"gzip_source", 1,
     {0x2babe37fa992fe68, 0x487ea7a3f8b72f7d, 0x487ea7a3f8b72f7d,
      0x06bf334bbd872909, 0x487ea7a3f8b72f7d, 0x487ea7a3f8b72f7d,
      0x487ea7a3f8b72f7d, 0x487ea7a3f8b72f7d}},
    {"gzip_log", 1,
     {0xbfcf5533919147e7, 0x04d0e99b8eee3055, 0x04d0e99b8eee3055,
      0x50a5652368b09718, 0x04d0e99b8eee3055, 0x04d0e99b8eee3055,
      0x04d0e99b8eee3055, 0x04d0e99b8eee3055}},
    {"mcf_inp", 1,
     {0x8fd5ef527ac3aedf, 0x7f2ac82584127b71, 0x7f2ac82584127b71,
      0x7f2ac82584127b71, 0x7f2ac82584127b71, 0x7f2ac82584127b71,
      0x7f2ac82584127b71, 0x7f2ac82584127b71}},
    {"gcc_200", 1,
     {0x4bd25cdf03181ad2, 0x107b67995692cb51, 0x107b67995692cb51,
      0xb1c7fac880a7d332, 0xf4c74a7f2ca23eb8, 0x107b67995692cb51,
      0x107b67995692cb51, 0x107b67995692cb51}},
    {"gcc_scilab", 1,
     {0x9a534b8ff69c241e, 0x7c70f34b886f4fb9, 0xabbf49c3e469f7ca,
      0x8619de8f79baa5cc, 0x891364f53fb664e0, 0xcaff995438f59c98,
      0x4f61cbaa601a7e88, 0x7c70f34b886f4fb9}},
    {"wupwise_ref", 1,
     {0xcd263df3e94d1c5a, 0xa87da17e3bfa6089, 0xa87da17e3bfa6089,
      0x8f799372020690c4, 0xfb9e5fe0e7d856d7, 0xa87da17e3bfa6089,
      0xa87da17e3bfa6089, 0xa87da17e3bfa6089}},
    {"gap_ref", 1,
     {0x0d9029e673c537cb, 0x67bfb12bd8940ae4, 0x67bfb12bd8940ae4,
      0x69c6ce8f4c902ce5, 0x67bfb12bd8940ae4, 0x67bfb12bd8940ae4,
      0x67bfb12bd8940ae4, 0x67bfb12bd8940ae4}},
    {"gcc_integrate", 1,
     {0xaa172c2a8c38d896, 0x91a4c833579c69ae, 0xba17a32c5f1d48b7,
      0x27f2d56dd226d5d4, 0x3df7fec8be084bd5, 0x3bacdf341b9e055b,
      0xa468b3cf2c052dab, 0xb68237ecb8bb5021}},
    {"gcc_expr", 1,
     {0x92c77654f06fb384, 0xdf55b6a595cc19d4, 0xfe507daea0bb63f5,
      0x5dc79edefd97bc47, 0xb2b00fbb690c56ea, 0x6fc12eba8a83603d,
      0x4cf9a53532d45321, 0x32ae6d308b9150cc}},
    {"ammp_in", 1,
     {0x9ae1bed774fdd50b, 0x4cc6d487c6900de8, 0x4cc6d487c6900de8,
      0xc5219df09d8fcfb4, 0x8abc6299dc6ea22a, 0x4cc6d487c6900de8,
      0x4cc6d487c6900de8, 0x4cc6d487c6900de8}},
    {"gcc_166", 1,
     {0xd093bc09cc5c8e7e, 0xc078265194347615, 0xa17d5f4889452bf4,
      0x76bc8083e0a21ad2, 0xf4964518381b92ed, 0x757bc01f6178b2b6,
      0x99262b9557aa3456, 0x87184b93c1537c65}},
    {"parser_ref", 1,
     {0x7cbfacddadda2228, 0x97270bc03354a768, 0x97270bc03354a768,
      0xdb75a057d047a61c, 0x84fddc24043f4caa, 0xce7a76b3ba1bd542,
      0xd51c99d249333baa, 0x97270bc03354a768}},
    {"apsi_ref", 1,
     {0x103dfdb6f11d9e11, 0x63ca0071048f13f6, 0x63ca0071048f13f6,
      0x3c08a55263cf860e, 0x3cc035cc4bca6e62, 0x63ca0071048f13f6,
      0x63ca0071048f13f6, 0x63ca0071048f13f6}},
    {"bzip2_program", 1,
     {0x864223d832c071ba, 0xa37f16676b682977, 0xa37f16676b682977,
      0x78c5daa89ac0aa43, 0x4df11b5440ae8672, 0x0899333a34bbb6d2,
      0x84844f5e6078df56, 0xa37f16676b682977}},
    {"mgrid_in", 1,
     {0x3f33381f3291825a, 0x2caa1474bf510e7f, 0x2caa1474bf510e7f,
      0x013c3ee90ef3415b, 0xf28b4efa710bd034, 0xb0bef8509393e5fb,
      0x0daf4d6bb461c45e, 0x2caa1474bf510e7f}},
    {"bzip2_source", 1,
     {0xac24f61653dc46cb, 0xb3b914c77ad75d5b, 0xb3b914c77ad75d5b,
      0xb1641fc67ee28126, 0xf1aea2d990b5f19d, 0x75c386b564f8c919,
      0xb3b914c77ad75d5b, 0xb3b914c77ad75d5b}},
    {"bzip2_graphic", 1,
     {0x823198c833d5430c, 0x5380d8f0ab53a4d0, 0x5380d8f0ab53a4d0,
      0x214b0cce54204ccc, 0xabdb0ab6db839c33, 0x934c64804956feb5,
      0x727b9ff9b642eef1, 0x5380d8f0ab53a4d0}},
    {"applu_in", 1,
     {0x53af9695f36822bc, 0xdb4c3169654e2420, 0xb8099f4dced63e7c,
      0x35af6995be03df71, 0xc961d929428ca1b6, 0x200612b280c4205a,
      0x72a5fa3315807177, 0x593b91e363b1fef0}},
    {"equake_in", 1,
     {0x1b1e06e1833020e1, 0x4f46b59f35451b55, 0x4f46b59f35451b55,
      0xbd3d69321063e35b, 0xd883a942323864c1, 0xc9833b8f74e368bf,
      0x4f46b59f35451b55, 0x4f46b59f35451b55}},
    {"crafty_in", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"eon_cook", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"eon_kajiya", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"eon_rushmeier", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"mesa_ref", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"vortex_lendian2", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"sixtrack_in", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"swim_in", 2,
     {0xce643732f5d47a45, 0xce643732f5d47a45, 0xce643732f5d47a45,
      0xce643732f5d47a45, 0xce643732f5d47a45, 0xce643732f5d47a45,
      0xce643732f5d47a45, 0xce643732f5d47a45}},
    {"vortex_lendian1", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"twolf_ref", 2,
     {0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045, 0x605ad571829ff045,
      0x605ad571829ff045, 0x605ad571829ff045}},
    {"vortex_lendian3", 2,
     {0x921763eb92f405d5, 0x4ea0fd08ddd28006, 0x4ea0fd08ddd28006,
      0x4ea0fd08ddd28006, 0x4ea0fd08ddd28006, 0x4ea0fd08ddd28006,
      0x4ea0fd08ddd28006, 0x4ea0fd08ddd28006}},
    {"gzip_program", 2,
     {0x38d16e6e1efea2bc, 0x56cac6c4b1e4f6f1, 0x56cac6c4b1e4f6f1,
      0xc961bdc8ebdd5cd5, 0x56cac6c4b1e4f6f1, 0x56cac6c4b1e4f6f1,
      0x56cac6c4b1e4f6f1, 0x56cac6c4b1e4f6f1}},
    {"gzip_graphic", 2,
     {0xf00f4429631d4b9e, 0x60e2dd632f9cf231, 0x60e2dd632f9cf231,
      0x379397773ecb008e, 0x60e2dd632f9cf231, 0x60e2dd632f9cf231,
      0x60e2dd632f9cf231, 0x60e2dd632f9cf231}},
    {"gzip_random", 2,
     {0xfb728dfb53f696f8, 0xd1817ea941373f86, 0xd1817ea941373f86,
      0xd1817ea941373f86, 0xd1817ea941373f86, 0xd1817ea941373f86,
      0xd1817ea941373f86, 0xd1817ea941373f86}},
    {"gzip_source", 2,
     {0x2babe37fa992fe68, 0x487ea7a3f8b72f7d, 0x487ea7a3f8b72f7d,
      0x06bf334bbd872909, 0x487ea7a3f8b72f7d, 0x487ea7a3f8b72f7d,
      0x487ea7a3f8b72f7d, 0x487ea7a3f8b72f7d}},
    {"gzip_log", 2,
     {0xbfcf5533919147e7, 0x04d0e99b8eee3055, 0x04d0e99b8eee3055,
      0x50a5652368b09718, 0x04d0e99b8eee3055, 0x04d0e99b8eee3055,
      0x04d0e99b8eee3055, 0x04d0e99b8eee3055}},
    {"mcf_inp", 2,
     {0xbcb53770981179c2, 0x157d96233fa2a30e, 0x157d96233fa2a30e,
      0x157d96233fa2a30e, 0x157d96233fa2a30e, 0x157d96233fa2a30e,
      0x157d96233fa2a30e, 0x157d96233fa2a30e}},
    {"gcc_200", 2,
     {0xef86a5b66a494c58, 0x3125c73a4832db65, 0x3125c73a4832db65,
      0x36f48962139d6e90, 0xdba4da7d3a3340fd, 0x3125c73a4832db65,
      0x3125c73a4832db65, 0x3125c73a4832db65}},
    {"gcc_scilab", 2,
     {0x231893938d905295, 0x3e6612dec537cd2a, 0x3e6612dec537cd2a,
      0xa9cace816acea587, 0x90220483a3ce6374, 0xe30ee1a6e1c97732,
      0xafffa65aca794e94, 0xe3ea03405108069d}},
    {"wupwise_ref", 2,
     {0xcd263df3e94d1c5a, 0xa87da17e3bfa6089, 0xa87da17e3bfa6089,
      0x8f799372020690c4, 0xfb9e5fe0e7d856d7, 0xa87da17e3bfa6089,
      0xa87da17e3bfa6089, 0xa87da17e3bfa6089}},
    {"gap_ref", 2,
     {0x0d9029e673c537cb, 0x67bfb12bd8940ae4, 0x67bfb12bd8940ae4,
      0x69c6ce8f4c902ce5, 0x67bfb12bd8940ae4, 0x67bfb12bd8940ae4,
      0x67bfb12bd8940ae4, 0x67bfb12bd8940ae4}},
    {"gcc_integrate", 2,
     {0xef2df55044fc51e3, 0xa5b7a6bb16f3f94f, 0x7004f4d48f64c015,
      0x58389b54ead82428, 0xeec9ee8fa4a89b5e, 0x78f3220ff4e0a414,
      0x5cf51cb054fdf1c4, 0xc70770930e425941}},
    {"gcc_expr", 2,
     {0x6375a559d5e1c542, 0x747ed68f20f8a9d1, 0x3eb31034b39fc487,
      0x8ce9fd0b26feccb3, 0x152919e1ec35018c, 0x0c4a8de40a300763,
      0xe58e79c108a2742d, 0x6f4778b440951206}},
    {"ammp_in", 2,
     {0x75641a30f79043ab, 0xccd09989634d5408, 0xccd09989634d5408,
      0x74be25288ecb2983, 0x90a367f7594bec78, 0xccd09989634d5408,
      0xccd09989634d5408, 0xccd09989634d5408}},
    {"gcc_166", 2,
     {0x4b2c846909a9ee1c, 0x512eae6dacdd520f, 0x3bee8032bf2bdb6a,
      0xfb54a81801a140ef, 0xa1f6225d6ec8403b, 0xc677479024fff01e,
      0xc13ce88e35071967, 0x0fd6de7377bb3cde}},
    {"parser_ref", 2,
     {0x1cf9faf2998b3512, 0xfb6c44bc467d0064, 0xfb6c44bc467d0064,
      0x6255b3e7197e13e6, 0x4005b96281f9f0cd, 0xc33d87136b75d6ed,
      0x2857a3e634c96448, 0x7f8128981abfd7e0}},
    {"apsi_ref", 2,
     {0x103dfdb6f11d9e11, 0x63ca0071048f13f6, 0x63ca0071048f13f6,
      0x3c08a55263cf860e, 0x3cc035cc4bca6e62, 0x63ca0071048f13f6,
      0x63ca0071048f13f6, 0x63ca0071048f13f6}},
    {"bzip2_program", 2,
     {0xad7ac23024c8584c, 0x31e7cf1588ad36e0, 0x31e7cf1588ad36e0,
      0xd247ee1b8c7a977d, 0x02b7ff65bba32786, 0xebc8794bca48f3a6,
      0xcccdb242bf59a985, 0x50e2961e939c8101}},
    {"mgrid_in", 2,
     {0x7e4c7bdbf41091ec, 0x29c881b02e805380, 0x29c881b02e805380,
      0x75ae14aac6eb40cc, 0x0943d14f02c8ae45, 0x86b8d6cb4f4e31e3,
      0x29c881b02e805380, 0x29c881b02e805380}},
    {"bzip2_source", 2,
     {0xc2082c124374913d, 0xd92cadb24c47ce18, 0xd92cadb24c47ce18,
      0x3db5b20ed70fa040, 0x28dff3e03525bb8d, 0x17223bc46226625a,
      0xd92cadb24c47ce18, 0xd92cadb24c47ce18}},
    {"bzip2_graphic", 2,
     {0x61ff51a04c153827, 0x9d3beb95a10bf0e7, 0x9d3beb95a10bf0e7,
      0x5390bbd207678453, 0x2150cf71754ec863, 0x9d3beb95a10bf0e7,
      0x9d3beb95a10bf0e7, 0x9d3beb95a10bf0e7}},
    {"applu_in", 2,
     {0xea533e422652f01c, 0x3528399ae7bc1c0a, 0x3528399ae7bc1c0a,
      0xaee2a0292a5a0537, 0x487b39a37ac45f7c, 0x0aa25cbe7549c66e,
      0x07cc607655b47115, 0x4d49fabfe3010540}},
    {"equake_in", 2,
     {0xc169f425fac10834, 0x6cb9dafd5f0c39d1, 0x6cb9dafd5f0c39d1,
      0x6ace9e9746eefc7f, 0x075e07817371da5f, 0x7a9ed7c05b47b5d4,
      0xc6257ac0540e8f97, 0x6cb9dafd5f0c39d1}},
    {"uniform", 1,
     {0x137406c8f1657d4a, 0x5a6fd26b8ad5eee9, 0xaa0989852a0cf707,
      0x5a6fd26b8ad5eee9, 0x6cb52f2e1f4db86b, 0x6cb52f2e1f4db86b,
      0x5a6fd26b8ad5eee9, 0x5a6fd26b8ad5eee9}},
    {"uniform", 2,
     {0xf47030baaeafbf0a, 0x4db1591fdc97fa2b, 0x99f1a107936e7975,
      0x4db1591fdc97fa2b, 0x4db1591fdc97fa2b, 0x4db1591fdc97fa2b,
      0x4db1591fdc97fa2b, 0x4db1591fdc97fa2b}},
    {"uniform", 3,
     {0xa57494fad817ad4c, 0xa3cc37b52fc464cd, 0xf81dfc63dfdd44f8,
      0xa3cc37b52fc464cd, 0xa3cc37b52fc464cd, 0xa3cc37b52fc464cd,
      0xa3cc37b52fc464cd, 0xa3cc37b52fc464cd}},
    {"uniform", 4,
     {0x1045c44d570888aa, 0x644df5bd743ae4cb, 0x16f88946e92ce094,
      0x644df5bd743ae4cb, 0x644df5bd743ae4cb, 0x644df5bd743ae4cb,
      0x644df5bd743ae4cb, 0x644df5bd743ae4cb}},
};
// clang-format on

/** FNV-1a over the eight little-endian bytes of v. */
uint64_t
mix(uint64_t hash, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (v >> (8 * i)) & 0xff;
        hash *= 1099511628211ULL;
    }
    return hash;
}

/** Digest of every prediction over the stream, then the Stats. */
uint64_t
digest(GphtPredictor &p, const std::vector<PhaseSample> &stream)
{
    uint64_t hash = 14695981039346656037ULL;
    for (const PhaseSample &sample : stream) {
        p.observe(sample);
        hash = mix(hash, static_cast<uint32_t>(p.predict()));
    }
    const auto &stats = p.stats();
    hash = mix(hash, stats.lookups);
    hash = mix(hash, stats.hits);
    hash = mix(hash, stats.insertions);
    hash = mix(hash, stats.replacements);
    return hash;
}

std::vector<PhaseSample>
makeStream(const Golden &golden)
{
    std::vector<PhaseSample> stream;
    if (std::string(golden.stream) == "uniform") {
        Rng rng(golden.seed);
        for (int i = 0; i < 4000; ++i)
            stream.push_back(
                {static_cast<PhaseId>(rng.uniformInt(1, 6)), 0.0});
        return stream;
    }
    const PhaseClassifier classifier = PhaseClassifier::table1();
    const IntervalTrace trace =
        Spec2000Suite::byName(golden.stream).makeTrace(0, golden.seed);
    for (const auto &interval : trace.all())
        stream.push_back(classifier.sample(interval.mem_per_uop));
    return stream;
}

TEST(GphtGolden, CoversEverySpecStreamAtTwoSeeds)
{
    std::vector<std::string> expected;
    for (uint64_t seed : {1, 2})
        for (const std::string &name : Spec2000Suite::names())
            expected.push_back(name + "/" + std::to_string(seed));
    for (uint64_t seed = 1; seed <= 4; ++seed)
        expected.push_back("uniform/" + std::to_string(seed));

    std::vector<std::string> covered;
    for (const Golden &golden : GOLDEN)
        covered.push_back(std::string(golden.stream) + "/" +
                          std::to_string(golden.seed));
    EXPECT_EQ(covered, expected);
}

class GphtGolden : public ::testing::TestWithParam<size_t>
{
};

TEST_P(GphtGolden, DigestsMatchCapture)
{
    const Geometry g = GEOMETRIES[GetParam()];
    for (const Golden &golden : GOLDEN) {
        GphtPredictor p(8, g.sets * g.ways, g.sets);
        EXPECT_EQ(digest(p, makeStream(golden)),
                  golden.digest[GetParam()])
            << golden.stream << " seed " << golden.seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GphtGolden, ::testing::Range(size_t(0), NUM_GEOMETRIES),
    [](const ::testing::TestParamInfo<size_t> &info) {
        const Geometry g = GEOMETRIES[info.param];
        return std::to_string(g.sets) + "x" + std::to_string(g.ways);
    });

} // namespace
} // namespace livephase
